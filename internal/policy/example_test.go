package policy_test

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
)

// Reproduce the first rows of the paper's Table 1: AVG_9 observing
// fully-busy quanta.
func ExampleAvgN() {
	pred := policy.MustAvgN(9)
	for i := 0; i < 5; i++ {
		fmt.Println(pred.Observe(policy.FullUtil))
	}
	// Output:
	// 1000
	// 1900
	// 2710
	// 3439
	// 4095
}

// The paper's best policy: PAST prediction with peg-peg speed setting and
// 93%/98% hysteresis bounds.
func ExampleGovernor() {
	gov := policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
		policy.BestBounds, false)
	// A fully busy quantum pegs the clock to the top...
	d := gov.Decide(10000, cpu.MinStep)
	fmt.Println(d.Step)
	// ...and an idle one pegs it to the bottom.
	d = gov.Decide(0, d.Step)
	fmt.Println(d.Step)
	// Output:
	// 206.4MHz
	// 59.0MHz
}

// The future-work deadline scheduler runs at the slowest speed that still
// meets every registered obligation.
func ExampleNewDeadlineScheduler() {
	ds := policy.NewDeadlineScheduler()
	// 120 million cycles due in one second: 132.7 MHz is the slowest
	// sufficient step.
	ds.Submit(120_000_000, 1_000_000)
	step, _ := ds.OnQuantum(0, 0, cpu.MaxStep, cpu.VHigh)
	fmt.Println(step)
	// Output:
	// 132.7MHz
}

// Weiser's offline OPT stretches early work into later idle time.
func ExampleOptSpeeds() {
	speeds, _ := policy.OptSpeeds([]float64{1, 0, 1, 0}, 0.01)
	fmt.Printf("%.2f\n", speeds)
	// Output:
	// [0.50 0.50 0.50 0.50]
}
