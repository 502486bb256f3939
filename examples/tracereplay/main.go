// Tracereplay demonstrates the record/replay methodology of Section 4.2:
// interactive sessions are captured as timestamped input events and
// replayed with millisecond accuracy, making interactive workloads exactly
// repeatable. The example records a chess session, round-trips it through
// the text serialization, then edits it — an impatient player moving twice
// as fast — and measures how the same policy behaves under both sessions.
package main

import (
	"bytes"
	"fmt"
	"log"

	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/kernel"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
	"clocksched/internal/workload"
)

func main() {
	// Record: the deterministic generator stands in for a live session.
	original := workload.DefaultChessTrace(1)

	// Serialize and re-load, as the paper's tooling stored traces on the
	// Itsy's flash.
	var buf bytes.Buffer
	if _, err := original.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := trace.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d input events over %.0f s, round-tripped losslessly\n",
		len(reloaded.Events), reloaded.Duration().Seconds())

	// Edit: an impatient player — every think time halved.
	fast := &trace.Trace{Name: "chess-fast"}
	for _, e := range reloaded.Events {
		e.At /= 2
		fast.Events = append(fast.Events, e)
	}

	for _, tr := range []*trace.Trace{reloaded, fast} {
		res, err := measure(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s energy %6.2f J, mean utilization %4.1f%%, %d clock changes\n",
			tr.Name+":", res.energy, res.util*100, res.changes)
	}
	fmt.Println("\nSame game, same policy — but halving the think times changes the")
	fmt.Println("utilization pattern the interval scheduler sees, and with it every")
	fmt.Println("number above. This is why the paper replays traces instead of")
	fmt.Println("re-running live sessions.")
}

type measurement struct {
	energy  float64
	util    float64
	changes int
}

func measure(tr *trace.Trace) (measurement, error) {
	w, err := workload.NewChess(tr)
	if err != nil {
		return measurement{}, err
	}
	eng := &sim.Engine{}
	cfg := kernel.DefaultConfig()
	cfg.Policy = policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
		policy.BestBounds, false)
	cfg.InitialStep = cpu.MaxStep
	k, err := kernel.New(eng, cfg)
	if err != nil {
		return measurement{}, err
	}
	if err := w.Install(k); err != nil {
		return measurement{}, err
	}
	length := tr.Duration() + 10*sim.Second
	if err := k.Run(length); err != nil {
		return measurement{}, err
	}
	cap, err := daq.Sample(k.Recorder(), 0, length, daq.DefaultConfig())
	if err != nil {
		return measurement{}, err
	}
	return measurement{
		energy:  cap.Energy(),
		util:    k.MeanUtil(),
		changes: k.SpeedChanges(),
	}, nil
}
