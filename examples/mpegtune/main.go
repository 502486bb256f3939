// Mpegtune finds the MPEG player's ideal constant clock — the paper's
// observation that the clip runs without dropping frames at 132.7 MHz but
// not below — by sweeping all eleven SA-1100 clock steps and reporting
// deadline behaviour, utilization, and energy at each. It also shows the
// Figure 9 plateau: utilization barely improves between 162.2 and
// 176.9 MHz because memory accesses cost more cycles at the higher clock.
package main

import (
	"fmt"
	"log"
	"time"

	"clocksched"
)

func main() {
	fmt.Println("MPEG 30s at each constant clock step:")
	fmt.Printf("%8s %10s %8s %10s %12s\n", "MHz", "util", "misses", "energy(J)", "verdict")

	var ideal float64
	for _, mhz := range clocksched.ClockStepsMHz() {
		p, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": mhz})
		if err != nil {
			log.Fatal(err)
		}
		res, err := clocksched.Run(clocksched.Config{
			Workload: clocksched.MPEG,
			Policy:   p,
			Duration: 30 * time.Second,
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "drops frames"
		if res.Misses == 0 {
			verdict = "ok"
			if ideal == 0 {
				ideal = mhz
				verdict = "ok  ← ideal"
			}
		}
		fmt.Printf("%8.1f %9.1f%% %8d %10.2f   %s\n",
			mhz, res.MeanUtilization*100, res.Misses, res.EnergyJoules, verdict)
	}

	fmt.Printf("\nAn ideal clock scheduler would therefore target %.1f MHz.\n", ideal)
	fmt.Println("No heuristic policy in the paper (or in this reproduction) settles there.")
}
