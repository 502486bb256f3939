package clocksched_test

import (
	"fmt"
	"log"
	"time"

	"clocksched"
)

// The simulation is deterministic, so examples print stable output.

// Run the paper's best heuristic policy against the MPEG workload.
func ExampleRun() {
	best, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := clocksched.Run(clocksched.Config{
		Workload: clocksched.MPEG,
		Policy:   best,
		Seed:     1,
		Duration: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("missed %d of %d deadlines\n", res.Misses, res.Deadlines)
	fmt.Printf("visited 59.0 MHz: %v\n", res.TimeAtMHz[59.0] > 0)
	fmt.Printf("visited 206.4 MHz: %v\n", res.TimeAtMHz[206.4] > 0)
	// Output:
	// missed 0 of 250 deadlines
	// visited 59.0 MHz: true
	// visited 206.4 MHz: true
}

// Build constant-speed policies by registry name and compare the full
// speed baseline against the MPEG clip's sweet spot.
func ExampleNewPolicy() {
	run := func(mhz float64) *clocksched.Result {
		p, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": mhz})
		if err != nil {
			log.Fatal(err)
		}
		res, err := clocksched.Run(clocksched.Config{
			Workload: clocksched.MPEG,
			Policy:   p,
			Seed:     1,
			Duration: 10 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	baseline, sweet := run(206.4), run(132.7)
	fmt.Printf("132.7 MHz saves energy: %v\n", sweet.EnergyJoules < baseline.EnergyJoules)
	fmt.Printf("and still misses nothing: %v\n", sweet.Misses == 0)
	// Output:
	// 132.7 MHz saves energy: true
	// and still misses nothing: true
}

// Policies are described in the paper's own naming style. Speed setters
// travel as codes: 0 one, 1 double, 2 peg.
func ExamplePolicy_Name() {
	for _, ref := range []clocksched.PolicyRef{
		{Name: "past-peg-peg"},
		{Name: "pering-avg-n", Params: map[string]float64{"n": 9, "up": 0, "down": 0}},
		{Name: "constant", Params: map[string]float64{"mhz": 132.7, "low_voltage": 1}},
	} {
		p, err := ref.Build()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(p.Name())
	}
	// Output:
	// PAST, peg-peg, 93%-98%
	// AVG_9, one-one, 50%-70%
	// Constant @ 132.7MHz, 1.23V
}

// The SA-1100's discrete clock steps.
func ExampleClockStepsMHz() {
	steps := clocksched.ClockStepsMHz()
	fmt.Println(len(steps), "steps from", steps[0], "to", steps[len(steps)-1], "MHz")
	// Output:
	// 11 steps from 59 to 206.4 MHz
}
