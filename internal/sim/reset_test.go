package sim

import (
	"errors"
	"testing"
)

// TestResetReadsAsFresh drives an engine through queued, fired, reserved
// and failed state, resets it, and checks that it then reads and runs as a
// zero Engine: no Handle taken before the reset cancels an event scheduled
// after it, even on the recycled node that event now occupies.
func TestResetReadsAsFresh(t *testing.T) {
	nop := func(Time) {}
	var e Engine
	e.MaxEvents = 7
	e.Instrument(nil)
	fired, err := e.At(1, nop)
	if err != nil {
		t.Fatal(err)
	}
	var queued []Handle
	for _, at := range []Time{5, 9, 9} {
		h, err := e.At(at, nop)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}
	base := e.Reserve(70)
	if _, err := e.AtReserved(9, base+64, nop); err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step fired nothing")
	}
	e.Fail(errors.New("boom"))

	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 || e.Err() != nil || e.MaxEvents != 0 {
		t.Fatalf("after Reset: now %v, fired %d, pending %d, err %v, cap %d; want all zero",
			e.Now(), e.Fired(), e.Pending(), e.Err(), e.MaxEvents)
	}
	if e.Step() {
		t.Fatal("Step after Reset fired an event")
	}
	if _, err := e.AtReserved(9, base+1, nop); !errors.Is(err, ErrNotReserved) {
		t.Errorf("seq reserved before Reset: err = %v, want ErrNotReserved", err)
	}

	// Schedule as many events as the reset recycled, so every old node
	// carries a new event, and compare the run against a fresh engine's.
	var fresh Engine
	var got, want []int
	for i, at := range []Time{4, 2, 4, 2, 3} {
		i := i
		if _, err := e.At(at, func(Time) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.At(at, func(Time) { want = append(want, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if r, f := e.Reserve(2), fresh.Reserve(2); r != f {
		t.Errorf("Reserve after Reset = %d, a fresh engine's = %d", r, f)
	}
	if e.Pending() != fresh.Pending() {
		t.Errorf("Pending = %d, a fresh engine's = %d", e.Pending(), fresh.Pending())
	}
	for _, h := range append(queued, fired) {
		if e.Cancel(h) {
			t.Errorf("a Handle from before Reset cancelled an event scheduled after it")
		}
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %v after Reset, a fresh engine fired %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v after Reset, a fresh engine fired %v", got, want)
		}
	}
	if e.Now() != fresh.Now() || e.Fired() != fresh.Fired() {
		t.Errorf("now %v, fired %d after Reset; a fresh engine: %v, %d", e.Now(), e.Fired(), fresh.Now(), fresh.Fired())
	}
}

// TestResetKeepsNodes checks the point of Reset: a reset engine schedules
// its next run on the nodes and queue array of the last, without
// allocating.
func TestResetKeepsNodes(t *testing.T) {
	nop := func(Time) {}
	var e Engine
	fill := func() {
		for i := 0; i < 32; i++ {
			if _, err := e.At(Time(i%5), nop); err != nil {
				t.Fatal(err)
			}
		}
		e.Step()
	}
	fill()
	if allocs := testing.AllocsPerRun(10, func() { e.Reset(); fill() }); allocs != 0 {
		t.Errorf("a reset engine allocates %v times to schedule its next run, want 0", allocs)
	}
}
