package kernel

import (
	"fmt"
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// renewCase is one kernel run: a configuration, the programs spawned
// before Run, and the run's end. Both builders return fresh values, since
// policies and programs carry state.
type renewCase struct {
	name  string
	cfg   func() Config
	progs func() []Program
	until sim.Time
}

// spinProgram returns zero-length actions forever.
type spinProgram struct{}

func (spinProgram) Next(sim.Time) Action { return ComputeFor(0) }
func (spinProgram) Name() string         { return "spin" }

func chaosPrograms(seed uint64) func() []Program {
	return func() []Program {
		progs := make([]Program, 4)
		for i := range progs {
			progs[i] = &chaosProgram{rng: sim.NewRNG(seed + uint64(i)), name: fmt.Sprintf("chaos-%d", i)}
		}
		return progs
	}
}

func chaosConfig(seed uint64, edit func(*Config)) func() Config {
	return func() Config {
		cfg := utilConfig()
		cfg.Policy = &chaosPolicy{rng: sim.NewRNG(seed + 1000)}
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
}

// renewCases cover a run that ends mid-stall with a voltage settle still
// pending, clean random runs on both power models (so a renew crosses a
// model change both ways), a retained scheduler log, and two failed runs.
var renewCases = []renewCase{
	{
		name: "mid-stall",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Policy = &stepPolicy{to: cpu.Step(5), v: cpu.VLow}
			return cfg
		},
		progs: func() []Program { return []Program{busyLoop{burst: cpu.Burst{Core: 500_000}}} },
		until: sim.Quantum + cpu.ClockChangeStall/2,
	},
	{name: "chaos", cfg: chaosConfig(1, nil), progs: chaosPrograms(1), until: 2 * sim.Second},
	{
		name:  "ideal-dvs",
		cfg:   chaosConfig(2, func(c *Config) { c.Model = power.IdealDVSModel() }),
		progs: chaosPrograms(2),
		until: 2 * sim.Second,
	},
	{
		name:  "sched-log",
		cfg:   chaosConfig(3, func(c *Config) { c.SchedLogCap = 500 }),
		progs: chaosPrograms(3),
		until: sim.Second,
	},
	{name: "event-cap", cfg: chaosConfig(4, func(c *Config) { c.EventCap = 300 }), progs: chaosPrograms(4), until: 2 * sim.Second},
	{
		name:  "spin",
		cfg:   func() Config { return DefaultConfig() },
		progs: func() []Program { return []Program{busyLoop{burst: cpu.Burst{Core: 1000}}, spinProgram{}} },
		until: sim.Second,
	},
}

// run spawns c's programs on k, runs it, and prints everything the run
// reports: counters, residency, logs, the retained power timeline and
// each process's accounting, floats bit for bit.
func (c renewCase) run(t *testing.T, eng *sim.Engine, k *Kernel) string {
	t.Helper()
	for _, p := range c.progs() {
		if _, err := k.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := k.Run(c.until); err != nil {
		fmt.Fprintf(&b, "err=%v\n", err)
	}
	d, idle, sw := k.LogTotals()
	fmt.Fprintf(&b, "now=%v fired=%d pending=%d quanta=%d util=%d speed=%d/%d volt=%d stall=%v log=%d/%d/%d\n",
		eng.Now(), eng.Fired(), eng.Pending(), k.Quanta(), k.UtilSum(), k.SpeedChanges(), k.FailedSpeedChanges(),
		k.VoltageChanges(), k.StallTime(), d, idle, sw)
	fmt.Fprintf(&b, "step=%v v=%v residency=%v\nutil=%v\nsched=%v\n", k.Step(), k.Voltage(), k.Residency(), k.UtilLog(), k.SchedLog())
	pts, err := k.Recorder().Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		fmt.Fprintf(&b, "%d:%b ", p.At, p.Watts)
	}
	for _, p := range k.Processes() {
		fmt.Fprintf(&b, "\n%d %s %v %v", p.PID(), p.Name(), p.State(), p.CPUTime())
	}
	return b.String()
}

// TestRenewMatchesNew runs every case on a kernel renewed after every
// other case (including itself) and checks it reports exactly what the
// case reports on a new kernel and engine.
func TestRenewMatchesNew(t *testing.T) {
	fresh := make(map[string]string, len(renewCases))
	for _, c := range renewCases {
		eng := &sim.Engine{}
		k, err := New(eng, c.cfg())
		if err != nil {
			t.Fatal(err)
		}
		fresh[c.name] = c.run(t, eng, k)
	}
	for _, a := range renewCases {
		for _, b := range renewCases {
			eng := &sim.Engine{}
			k, err := New(eng, a.cfg())
			if err != nil {
				t.Fatal(err)
			}
			a.run(t, eng, k)
			eng.Reset()
			if err := k.Renew(eng, b.cfg()); err != nil {
				t.Fatal(err)
			}
			if got := b.run(t, eng, k); got != fresh[b.name] {
				t.Errorf("%s after %s differs from %s on a new kernel:\n got %.300s\nwant %.300s",
					b.name, a.name, b.name, got, fresh[b.name])
			}
		}
	}
}

// TestRenewRejectsWithoutChange checks that a bad configuration leaves a
// kernel as it was, and that Renew, like New, wants an engine at time 0.
func TestRenewRejectsWithoutChange(t *testing.T) {
	eng, k := newKernel(t, DefaultConfig())
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	quanta := k.Quanta()
	if err := k.Renew(eng, DefaultConfig()); err == nil {
		t.Error("Renew on an engine at 1s succeeded")
	}
	eng.Reset()
	bad := DefaultConfig()
	bad.InitialStep = cpu.Step(99)
	if err := k.Renew(eng, bad); err == nil {
		t.Error("Renew with an invalid step succeeded")
	}
	if k.Quanta() != quanta {
		t.Errorf("a rejected Renew changed the kernel: quanta %d, was %d", k.Quanta(), quanta)
	}
}
