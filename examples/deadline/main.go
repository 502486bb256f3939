// Deadline demonstrates the paper's future-work direction made concrete:
// instead of inferring demand from past utilization, the MPEG player
// advertises each frame's work and due time to a deadline-based clock
// scheduler, which then runs at the slowest speed that still meets every
// deadline — "energy scheduling would prefer for the deadline to be met as
// late as possible."
//
// The interval heuristics of the paper cannot settle on the clip's ideal
// 132.7 MHz; the deadline scheduler parks there, recovering the energy the
// heuristics leave on the table, and voltage scaling finally pays off
// because the clock actually lives below 162.2 MHz.
package main

import (
	"fmt"
	"log"

	"clocksched/internal/expt"
	"clocksched/internal/grids"
)

func main() {
	cfg, err := grids.DeadlineConfig(1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := grids.Run(expt.DefaultEnv(1), cfg)
	if err != nil {
		log.Fatal(err)
	}
	rows := grids.DeadlineComparison(res)
	fmt.Print(expt.RenderDeadlineComparison(rows))

	base := rows[0].EnergyJ
	fmt.Println()
	for _, r := range rows[1:] {
		fmt.Printf("%-40s saves %4.1f%% vs constant full speed\n",
			r.Policy, (base-r.EnergyJ)/base*100)
	}
	fmt.Println("\nThe heuristics slam between 59 and 206.4 MHz; the deadline scheduler")
	fmt.Println("settles at the clip's ideal step — the answer to the paper's closing")
	fmt.Println("question about where clock scheduling should get its information.")
}
