// Policysweep reproduces the paper's comprehensive policy study in
// miniature: it sweeps the AVG_N decay from 0 (PAST) to 10 against every
// combination of speed-setting algorithms at Pering's 50%/70% thresholds,
// running each against the MPEG workload, and reports energy, deadline
// misses, and clock-change counts. The takeaway matches Section 5.4: the
// policies that never miss deadlines barely save energy, and the ones that
// save energy miss deadlines.
//
// The whole grid — 63 interval policies plus two constant baselines — runs
// through one clocksched.Sweep call, fanned across every core; the printed
// rows are bit-identical to a serial loop.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"clocksched"
)

func main() {
	var policies []clocksched.Policy
	add := func(name string, params map[string]float64) {
		p, err := clocksched.NewPolicy(name, params)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, p)
	}
	// Speed setters travel as codes: 0 one, 1 double, 2 peg.
	for _, n := range []float64{0, 1, 3, 5, 7, 9, 10} {
		for up := 0.0; up <= 2; up++ {
			for down := 0.0; down <= 2; down++ {
				add("pering-avg-n", map[string]float64{"n": n, "up": up, "down": down})
			}
		}
	}
	add("constant", map[string]float64{"mhz": 206.4})
	add("constant", map[string]float64{"mhz": 132.7})

	sweep, err := clocksched.Sweep(context.Background(), clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.MPEG},
		Policies:  policies,
		Seeds:     []uint64{1},
		Duration:  30 * time.Second,
		FailFast:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("AVG_N × speed setters, MPEG 30s, bounds 50%/70%:")
	fmt.Printf("%-6s %-8s %-8s %10s %8s %8s\n",
		"N", "up", "down", "energy(J)", "misses", "changes")
	for _, cell := range sweep.Cells {
		p := cell.Config.Policy
		res := cell.Result
		if p.Constant {
			fmt.Printf("%-23s %10.2f %8d %8s\n",
				fmt.Sprintf("constant @ %.1f MHz", p.MHz), res.EnergyJoules, res.Misses, "-")
			continue
		}
		fmt.Printf("%-6d %-8s %-8s %10.2f %8d %8d\n",
			p.AvgN, p.Up, p.Down, res.EnergyJoules, res.Misses, res.ClockChanges)
	}
}
