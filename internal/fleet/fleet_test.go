package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/fabric"
	"clocksched/internal/service"
	"clocksched/internal/telemetry"
)

func mustPolicy(t *testing.T, name string, params map[string]float64) clocksched.Policy {
	t.Helper()
	p, err := clocksched.NewPolicy(name, params)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testSpec is the small fixed-seed population the byte-identity tests
// run: a full default mix, an adaptive policy, the deadline scheduler,
// and a pinned 59 MHz constant that the pre-pass must skip for the heavy
// classes. Shared with the kill-test subprocess, which must build the
// identical spec.
func testSpec(tb testing.TB) Spec {
	tb.Helper()
	spec := NewSpec(18, 7)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, ref := range []struct {
		name   string
		params map[string]float64
	}{
		{"past-peg-peg", nil},
		{"deadline", nil},
		{"constant", map[string]float64{"mhz": 59, "low_voltage": 1}},
	} {
		p, err := clocksched.NewPolicy(ref.name, ref.params)
		if err != nil {
			tb.Fatal(err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	return spec
}

func TestSpecValidateStructuredErrors(t *testing.T) {
	best, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		t.Fatal(err)
	}
	base := func() Spec {
		s := NewSpec(10, 1)
		s.Policies = []clocksched.Policy{best}
		return s
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string
	}{
		{"zero devices", func(s *Spec) { s.Devices = 0 }, "devices"},
		{"negative devices", func(s *Spec) { s.Devices = -4 }, "devices"},
		{"huge devices", func(s *Spec) { s.Devices = MaxDevices + 1 }, "devices"},
		{"unknown mix key", func(s *Spec) { s.Mix = map[string]float64{"crysis": 1} }, "mix"},
		{"NaN weight", func(s *Spec) { s.Mix = map[string]float64{"web": math.NaN()} }, "mix"},
		{"negative weight", func(s *Spec) { s.Mix = map[string]float64{"web": -1} }, "mix"},
		{"all-zero mix", func(s *Spec) { s.Mix = map[string]float64{"web": 0} }, "mix"},
		{"no policies", func(s *Spec) { s.Policies = nil }, "policies"},
		{"negative duration", func(s *Spec) { s.Duration = -1 }, "duration"},
		{"spread without window", func(s *Spec) { s.ArrivalSpread = 1 }, "arrival_spread"},
		{"spread swallows window", func(s *Spec) {
			s.Duration = clocksched.Duration(time.Second)
			s.ArrivalSpread = clocksched.Duration(time.Second)
		}, "arrival_spread"},
		{"negative slack", func(s *Spec) { s.DeadlineSlack = -1 }, "deadline_slack"},
		{"NaN bar", func(s *Spec) { s.MaxUtil = math.NaN() }, "max_util"},
		{"bar above one", func(s *Spec) { s.MaxUtil = 1.5 }, "max_util"},
		{"version mismatch", func(s *Spec) { s.SimVersion = "bogus-0.0" }, "sim_version"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *SpecError", tc.name, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: reported field %q, want %q (err: %v)", tc.name, se.Field, tc.field, err)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestValidateReportsEveryError(t *testing.T) {
	s := Spec{Devices: -1, Mix: map[string]float64{"quake": 1}}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"devices", "quake", "policies"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"devices": 5, "warp_factor": 9}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeSpec([]byte(`{"devices": 5`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	// A valid wire spec round-trips.
	spec, err := DecodeSpec([]byte(`{
		"devices": 5, "seed": 3,
		"mix": {"web": 1},
		"policies": [{"name": "past-peg-peg"}],
		"duration": "1s"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Devices != 5 || len(spec.Policies) != 1 || spec.Policies[0].Name() == "" {
		t.Errorf("decoded spec %+v", spec)
	}
}

func TestGenerateDeviceDeterministic(t *testing.T) {
	s := testSpec(t)
	for i := 0; i < s.Devices; i++ {
		a, b := s.GenerateDevice(i), s.GenerateDevice(i)
		if a != b {
			t.Fatalf("device %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Seed == 0 {
			t.Errorf("device %d: zero session seed would alias the class default", i)
		}
		if a.Arrival < 0 || a.Arrival > s.ArrivalSpread {
			t.Errorf("device %d: arrival %v outside [0, %v]", i, a.Arrival, s.ArrivalSpread)
		}
	}
	// Device identity is invariant under population growth.
	grown := s
	grown.Devices = 10 * s.Devices
	for i := 0; i < s.Devices; i++ {
		if s.GenerateDevice(i) != grown.GenerateDevice(i) {
			t.Fatalf("device %d changed when the population grew", i)
		}
	}
}

func TestGenerateDeviceMixCoverage(t *testing.T) {
	best, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSpec(2000, 11)
	s.Policies = []clocksched.Policy{best}
	counts := map[clocksched.Workload]int{}
	for i := 0; i < s.Devices; i++ {
		counts[s.GenerateDevice(i).Workload]++
	}
	for class, weight := range DefaultMix() {
		got := counts[clocksched.Workload(class)]
		want := weight * float64(s.Devices)
		if math.Abs(float64(got)-want) > 0.25*want {
			t.Errorf("class %s: %d devices, expected ≈%.0f", class, got, want)
		}
	}
}

func TestCompileFeasibilitySkips(t *testing.T) {
	s := NewSpec(10, 3)
	s.Mix = map[string]float64{"mpeg": 1}
	s.Duration = clocksched.Duration(time.Second)
	s.Policies = []clocksched.Policy{
		mustPolicy(t, "past-peg-peg", nil),
		mustPolicy(t, "constant", map[string]float64{"mhz": 59}),
	}
	plan, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// MPEG fits when the policy can reach the top step, never at 59 MHz.
	if len(plan.Cells) != 10 || len(plan.Skips) != 10 {
		t.Fatalf("%d cells, %d skips; want 10 and 10", len(plan.Cells), len(plan.Skips))
	}
	for _, sk := range plan.Skips {
		if sk.Policy != 1 || sk.Workload != clocksched.MPEG {
			t.Errorf("unexpected skip %+v", sk)
		}
		if sk.EstUtil <= DefaultMaxUtil {
			t.Errorf("skip records util %v under the bar", sk.EstUtil)
		}
		if sk.MinFeasibleMHz != 132.7 {
			t.Errorf("min feasible %v MHz, want 132.7", sk.MinFeasibleMHz)
		}
	}
	// Pairings and cells together account for every device×policy pair.
	if got := len(plan.Cells) + len(plan.Skips); got != s.Devices*len(s.Policies) {
		t.Errorf("%d pairings accounted, want %d", got, s.Devices*len(s.Policies))
	}
}

func TestFeasibleHelper(t *testing.T) {
	if Feasible(clocksched.MPEG, cpu.MinStep) {
		t.Error("MPEG at 59MHz reported feasible")
	}
	if !Feasible(clocksched.MPEG, cpu.MaxStep) {
		t.Error("MPEG at 206.4MHz reported infeasible")
	}
	if !Feasible(clocksched.Workload("mystery"), cpu.MinStep) {
		t.Error("unknown class not conservatively feasible")
	}
}

func TestRunAllInfeasible(t *testing.T) {
	s := NewSpec(4, 1)
	s.Mix = map[string]float64{"editor": 1}
	s.Duration = clocksched.Duration(time.Second)
	s.Policies = []clocksched.Policy{mustPolicy(t, "constant", map[string]float64{"mhz": 59})}
	pop, err := Run(context.Background(), s, clocksched.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	row := pop.Rows[0]
	if row.Infeasible != 4 || row.Measured != 0 || row.Devices != 4 {
		t.Errorf("row %+v, want 4 infeasible of 4", row)
	}
	if len(pop.Skipped) != 1 || pop.Skipped[0].Count != 4 {
		t.Errorf("skip summary %+v", pop.Skipped)
	}
	if !strings.Contains(pop.Render(), "Infeasible pairings") {
		t.Error("render omits the infeasible bucket")
	}
}

// TestFleetByteIdentity is the acceptance core: the same fixed-seed
// population reduces to a byte-identical summary whether the cells run
// serially, across four workers, or across two in-process sweepd peers.
func TestFleetByteIdentity(t *testing.T) {
	spec := testSpec(t)
	ref, err := Run(context.Background(), spec, clocksched.SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	if !strings.Contains(want, "Fleet population: 18 devices") {
		t.Fatalf("unexpected summary:\n%s", want)
	}

	par, err := Run(context.Background(), spec, clocksched.SweepConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Render(); got != want {
		t.Errorf("4-worker summary differs from serial:\n--- serial\n%s\n--- parallel\n%s", want, got)
	}

	if testing.Short() {
		t.Skip("fabric leg")
	}
	p1 := startPeer(t, service.Config{Workers: 2})
	p2 := startPeer(t, service.Config{Workers: 2})
	// The -peers path: the compiled cells through a fabric coordinator,
	// then the same reduction.
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	co, err := fabric.New(fabric.Config{Peers: []string{p1, p2}, Dir: t.TempDir(), LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), clocksched.NewSweepSpec(clocksched.SweepConfig{Cells: plan.Cells}))
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Reduce(plan, res)
	if err != nil {
		t.Fatal(err)
	}
	if got := fab.Render(); got != want {
		t.Errorf("2-peer summary differs from serial:\n--- serial\n%s\n--- fabric\n%s", want, got)
	}
}

func startPeer(t *testing.T, cfg service.Config) string {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// TestFleetKillAndResumeChild is the subprocess half of the durability
// test: it runs the shared fixed-seed fleet with a journal, one line per
// cell, until the parent SIGKILLs it.
func TestFleetKillAndResumeChild(t *testing.T) {
	dir := os.Getenv("CLOCKSCHED_FLEET_KILL_DIR")
	if dir == "" {
		t.Skip("subprocess helper; run via TestFleetKillAndResume")
	}
	cache, err := clocksched.NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), testSpec(t), clocksched.SweepConfig{
		Workers: 1,
		Cache:   cache,
		Journal: filepath.Join(dir, "fleet.wal"),
		Progress: func(done, total int) {
			fmt.Printf("cell %d/%d\n", done, total)
			time.Sleep(100 * time.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unreachable when the parent kills us, by design.
}

// TestFleetKillAndResume SIGKILLs a fleet run mid-sweep and resumes it
// from the journal in a fresh process; the resumed population summary
// must be byte-identical to an uninterrupted serial run.
func TestFleetKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()

	child := exec.Command(os.Args[0], "-test.run=TestFleetKillAndResumeChild$", "-test.v")
	child.Env = append(os.Environ(), "CLOCKSCHED_FLEET_KILL_DIR="+dir)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	lines := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "cell ") {
			lines++
			if lines == 3 {
				break
			}
		}
	}
	if lines < 3 {
		t.Fatalf("child exited after %d cells: %v", lines, child.Wait())
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("child did not die of the signal: err=%v state=%v", err, child.ProcessState)
	}

	ref, err := Run(context.Background(), testSpec(t), clocksched.SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := clocksched.NewSweepCache(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), testSpec(t), clocksched.SweepConfig{
		Workers: 1,
		Cache:   cache,
		Journal: filepath.Join(dir, "fleet.wal"),
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != ref.Render() {
		t.Errorf("resumed summary differs:\n--- fresh\n%s\n--- resumed\n%s", ref.Render(), res.Render())
	}
}

func TestRunTelemetryCounters(t *testing.T) {
	s := NewSpec(6, 2)
	s.Mix = map[string]float64{"mpeg": 1}
	s.Duration = clocksched.Duration(time.Second)
	s.Policies = []clocksched.Policy{
		mustPolicy(t, "past-peg-peg", nil),
		mustPolicy(t, "constant", map[string]float64{"mhz": 59}),
	}
	reg := telemetry.New()
	pop, err := Run(context.Background(), s, clocksched.SweepConfig{Telemetry: clocksched.TelemetryOver(reg)})
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"fleet_devices_total":    6,
		"fleet_cells_total":      6,
		"fleet_infeasible_total": 6,
		"fleet_cells_measured":   6,
		"fleet_cells_failed":     0,
		// The sweep itself reports into the same registry: every
		// feasible cell ran once.
		telemetry.MSweepCellsRun: 6,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.Counter(telemetry.MKernelQuanta).Value() == 0 {
		t.Error("the cells' kernels reported no quanta")
	}
	_ = pop
}

func TestExperimentSpec(t *testing.T) {
	spec, err := ExperimentSpec(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.Policies) != len(clocksched.RegisteredPolicies())+1 {
		t.Errorf("%d policies, want zoo + low constant", len(spec.Policies))
	}
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Skips) == 0 {
		t.Error("experiment spec exercises no infeasible pairings")
	}
}

// TestFleet10K is the full acceptance run: 10k devices, serial vs
// parallel byte identity. Gated behind an environment variable — it
// simulates tens of thousands of device sessions.
func TestFleet10K(t *testing.T) {
	if os.Getenv("CLOCKSCHED_FLEET_10K") == "" {
		t.Skip("set CLOCKSCHED_FLEET_10K=1 to run the 10k-device acceptance sweep")
	}
	spec, err := ExperimentSpec(1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), spec, clocksched.SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), spec, clocksched.SweepConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Render() != par.Render() {
		t.Error("10k-device summary differs between serial and 4 workers")
	}
}
