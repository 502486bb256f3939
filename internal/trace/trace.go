// Package trace records and replays timestamped input events, mirroring the
// paper's tracing mechanism: "we used a tracing mechanism that recorded
// timestamped input events and then allowed us to replay those events with
// millisecond accuracy." Traces make interactive workloads exactly
// repeatable across runs and policies.
package trace

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"clocksched/internal/sim"
)

// Event is one recorded input event: a pen tap, a scroll, a menu selection.
// Kind is application-defined; Arg carries an application payload (e.g.
// scroll distance or a move index).
type Event struct {
	At   sim.Time
	Kind string
	Arg  int64
}

// Trace is an ordered sequence of input events for one application session.
type Trace struct {
	Name   string
	Events []Event
}

// MaxEventTime bounds trace timestamps to one simulated year. Real sessions
// run minutes; anything past this is a corrupt or hostile trace, and
// rejecting it here keeps downstream virtual-time arithmetic (which adds
// burst durations and jitter to event times) far from int64 overflow.
const MaxEventTime = 365 * 24 * 3600 * sim.Second

// Validate checks that events are in nondecreasing time order with
// non-negative, bounded timestamps and non-empty whitespace-free kinds.
// A trace that validates is guaranteed to survive a WriteTo/Read round trip
// unchanged.
func (t *Trace) Validate() error {
	if t.Name == "" {
		return errors.New("trace: empty name")
	}
	if strings.IndexFunc(t.Name, unicode.IsSpace) >= 0 {
		return fmt.Errorf("trace: name %q contains whitespace", t.Name)
	}
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("trace: event %d at negative time %v", i, e.At)
		}
		if e.At > MaxEventTime {
			return fmt.Errorf("trace: event %d at %v beyond the %v limit", i, e.At, MaxEventTime)
		}
		if e.Kind == "" {
			return fmt.Errorf("trace: event %d has empty kind", i)
		}
		if strings.IndexFunc(e.Kind, unicode.IsSpace) >= 0 {
			return fmt.Errorf("trace: event %d kind %q contains whitespace", i, e.Kind)
		}
		if i > 0 && e.At < t.Events[i-1].At {
			return fmt.Errorf("trace: event %d at %v before predecessor at %v",
				i, e.At, t.Events[i-1].At)
		}
	}
	return nil
}

// Duration returns the time of the last event (the session length).
func (t *Trace) Duration() sim.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Recorder captures events during a live session. Reset starts it over,
// keeping its event array, so one recorder can generate trace after trace;
// each Finish then returns the recorder's own trace, which the next Reset
// overwrites.
type Recorder struct {
	trace Trace
}

// NewRecorder starts recording a session under the given name.
func NewRecorder(name string) *Recorder { return &Recorder{trace: Trace{Name: name}} }

// Reset starts recording a new session under name that is expected to
// hold at most n events, so that the trace grows in one allocation, not by
// doubling; more than n events is still legal. It keeps the recorder's
// event array when that holds n events and otherwise allocates exactly n.
// The trace the last Finish returned is overwritten by the new session.
func (r *Recorder) Reset(name string, n int) {
	ev := r.trace.Events[:0]
	if cap(ev) < n {
		ev = make([]Event, 0, n)
	}
	r.trace = Trace{Name: name, Events: ev}
}

// Add records one event. Events may arrive out of order (from multiple
// sources); Finish sorts them.
func (r *Recorder) Add(at sim.Time, kind string, arg int64) {
	r.trace.Events = append(r.trace.Events, Event{At: at, Kind: kind, Arg: arg})
}

// Finish returns the completed, validated trace. It is the recorder's own:
// a later Add or Reset changes it.
func (r *Recorder) Finish() (*Trace, error) {
	slices.SortStableFunc(r.trace.Events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	if err := r.trace.Validate(); err != nil {
		return nil, err
	}
	return &r.trace, nil
}

// WriteTo serializes the trace in a line-oriented text format:
//
//	# itsy input trace
//	name <name>
//	<microseconds> <kind> <arg>
//	...
//
// It returns the number of bytes written.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	n := int64(0)
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "# itsy input trace\nname %s\n", t.Name)); err != nil {
		return n, err
	}
	for _, e := range t.Events {
		if err := count(fmt.Fprintf(bw, "%d %s %d\n", int64(e.At), e.Kind, e.Arg)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a trace in the WriteTo format.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "name" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: bad name directive", line)
			}
			t.Name = fields[1]
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 'time kind arg', got %q", line, text)
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %v", line, err)
		}
		arg, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad arg: %v", line, err)
		}
		t.Events = append(t.Events, Event{At: sim.Time(at), Kind: fields[1], Arg: arg})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
