package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// schedNode is one element of a random schedule: a plain event, or (with
// chain set) a time-ordered chain of events such as a replayed trace.
// at is absolute for a top-level node and a delay after its parent fires
// for a child; a chain's event j fires at at+chain[j].
type schedNode struct {
	label string
	at    Time
	chain []Duration
	kids  []*schedNode // installed when a plain event fires
}

// randomSchedule builds a schedule crowded into a few instants, so ties
// between plain events and chain events are the rule, not the exception.
func randomSchedule(rng *RNG, depth int, prefix string) []*schedNode {
	nodes := make([]*schedNode, 1+rng.Int63n(6))
	for i := range nodes {
		n := &schedNode{label: fmt.Sprintf("%s%d", prefix, i), at: Time(rng.Int63n(4))}
		if rng.Bool(0.4) {
			off := Duration(0)
			n.chain = make([]Duration, 1+rng.Int63n(6))
			for j := range n.chain {
				if rng.Bool(0.5) {
					off += Duration(rng.Int63n(3))
				}
				n.chain[j] = off
			}
		} else if depth > 0 && rng.Bool(0.6) {
			n.kids = randomSchedule(rng, depth-1, n.label+".")
		}
		nodes[i] = n
	}
	return nodes
}

// scheduleRun is what a run of a schedule looks like from outside.
type scheduleRun struct {
	fired   []string
	pending []int
	err     string
}

// runSchedule installs nodes on a fresh engine and steps it to the end,
// recording the fire order and Pending after every step. Chains are
// scheduled in full up front (eager) or one event at a time on reserved
// sequence numbers (lazy), the way workload trace replay does it.
func runSchedule(nodes []*schedNode, lazy bool, maxEvents uint64) (scheduleRun, error) {
	e := &Engine{MaxEvents: maxEvents}
	var run scheduleRun
	var failed error
	var install func(n *schedNode, now Time)
	install = func(n *schedNode, now Time) {
		start := now + n.at
		if n.chain == nil {
			_, err := e.At(start, func(now Time) {
				run.fired = append(run.fired, n.label)
				for _, k := range n.kids {
					install(k, now)
				}
			})
			failed = errors.Join(failed, err)
			return
		}
		record := func(j int) Event {
			return func(Time) { run.fired = append(run.fired, fmt.Sprintf("%s#%d", n.label, j)) }
		}
		if !lazy {
			for j, off := range n.chain {
				_, err := e.At(start+off, record(j))
				failed = errors.Join(failed, err)
			}
			return
		}
		base := e.Reserve(len(n.chain))
		next := 0
		var fire Event
		fire = func(now Time) {
			j := next
			next++
			if next < len(n.chain) {
				_, err := e.AtReserved(start+n.chain[next], base+uint64(next), fire)
				failed = errors.Join(failed, err)
			}
			record(j)(now)
		}
		_, err := e.AtReserved(start+n.chain[0], base, fire)
		failed = errors.Join(failed, err)
	}
	for _, n := range nodes {
		install(n, 0)
	}
	run.pending = append(run.pending, e.Pending())
	for e.Step() {
		run.pending = append(run.pending, e.Pending())
	}
	if err := e.Err(); err != nil {
		run.err = err.Error()
	}
	return run, failed
}

// TestReservedChainsMatchEagerScheduling is the differential proof behind
// lazy trace replay: for random schedules mixing plain events with chains
// that tie against them, scheduling each chain event only when its
// predecessor fires, under sequence numbers reserved up front, fires in
// the same order, reports the same Pending after every step, and fails
// an event cap with the same text as scheduling every event eagerly.
func TestReservedChainsMatchEagerScheduling(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := NewRNG(seed)
		nodes := randomSchedule(rng, 2, "")
		var maxEvents uint64
		if seed%2 == 0 {
			maxEvents = uint64(1 + rng.Int63n(12))
		}
		eager, err := runSchedule(nodes, false, maxEvents)
		if err != nil {
			t.Fatalf("seed %d: eager schedule: %v", seed, err)
		}
		lazy, err := runSchedule(nodes, true, maxEvents)
		if err != nil {
			t.Fatalf("seed %d: lazy schedule: %v", seed, err)
		}
		if !slices.Equal(eager.fired, lazy.fired) {
			t.Fatalf("seed %d: fire order\n eager %v\n lazy  %v", seed, eager.fired, lazy.fired)
		}
		if !slices.Equal(eager.pending, lazy.pending) {
			t.Fatalf("seed %d: Pending after each step\n eager %v\n lazy  %v", seed, eager.pending, lazy.pending)
		}
		if eager.err != lazy.err {
			t.Fatalf("seed %d: error %q, eager %q", seed, lazy.err, eager.err)
		}
	}
}

func TestAtReservedRejectsUnreservedSeq(t *testing.T) {
	var e Engine
	nop := func(Time) {}
	if _, err := e.AtReserved(0, 0, nop); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("seq on an engine with no reservation: err = %v", err)
	}
	h, err := e.At(5, nop) // takes seq 0
	if err != nil {
		t.Fatal(err)
	}
	base := e.Reserve(3)
	if base != 1 {
		t.Fatalf("Reserve base = %d, want 1", base)
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 1 queued + 3 held", e.Pending())
	}
	for _, seq := range []uint64{0, base + 3, base + 100} {
		if _, err := e.AtReserved(5, seq, nop); !errors.Is(err, ErrNotReserved) {
			t.Errorf("seq %d outside the reservation: err = %v", seq, err)
		}
	}
	if _, err := e.AtReserved(5, base+1, nop); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AtReserved(5, base+1, nop); !errors.Is(err, ErrNotReserved) {
		t.Errorf("seq used twice: err = %v", err)
	}
	if e.Pending() != 4 {
		t.Errorf("Pending = %d after scheduling one held seq, want 4", e.Pending())
	}
	if next, _ := e.At(5, nop); next.e.seq != base+3 {
		t.Errorf("At after Reserve took seq %d, want %d", next.e.seq, base+3)
	}
	e.Cancel(h)
	if e.Pending() != 4 {
		t.Errorf("Pending = %d after a cancel, want 4", e.Pending())
	}
}

func TestAtReservedRejectsPastAndNil(t *testing.T) {
	var e Engine
	base := e.Reserve(2)
	if _, err := e.At(10, func(Time) {}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	if _, err := e.AtReserved(9, base, func(Time) {}); !errors.Is(err, ErrPast) {
		t.Errorf("past time: err = %v, want ErrPast", err)
	}
	if _, err := e.AtReserved(10, base, nil); err == nil {
		t.Error("nil event accepted")
	}
	// Neither rejection used up the seq.
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want both seqs still held", e.Pending())
	}
	if _, err := e.AtReserved(10, base, func(Time) {}); err != nil {
		t.Errorf("held seq after rejections: %v", err)
	}
}

func TestReserveZeroHoldsNothing(t *testing.T) {
	var e Engine
	if base := e.Reserve(0); base != 0 || e.Pending() != 0 {
		t.Fatalf("Reserve(0) = %d, Pending %d", base, e.Pending())
	}
	if _, err := e.AtReserved(0, 0, func(Time) {}); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("seq from an empty reservation: err = %v", err)
	}
}
