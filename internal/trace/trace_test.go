package trace

import (
	"bytes"
	"strings"
	"testing"

	"clocksched/internal/sim"
)

func sample() *Trace {
	return &Trace{
		Name: "web",
		Events: []Event{
			{At: 0, Kind: "tap", Arg: 1},
			{At: 1500 * sim.Millisecond, Kind: "scroll", Arg: 120},
			{At: 3 * sim.Second, Kind: "scroll", Arg: -40},
			{At: 10 * sim.Second, Kind: "open", Arg: 2},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sample()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = sample()
	bad.Events[2].At = 100 // out of order
	if bad.Validate() == nil {
		t.Error("out-of-order events accepted")
	}
	bad = sample()
	bad.Events[0].At = -1
	if bad.Validate() == nil {
		t.Error("negative timestamp accepted")
	}
	bad = sample()
	bad.Events[0].Kind = ""
	if bad.Validate() == nil {
		t.Error("empty kind accepted")
	}
	bad = sample()
	bad.Events[0].Kind = "two words"
	if bad.Validate() == nil {
		t.Error("whitespace kind accepted")
	}
}

func TestDuration(t *testing.T) {
	if got := sample().Duration(); got != 10*sim.Second {
		t.Errorf("Duration = %v", got)
	}
	empty := &Trace{Name: "x"}
	if empty.Duration() != 0 {
		t.Error("empty trace duration nonzero")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sample()
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || len(got.Events) != len(orig.Events) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range orig.Events {
		if got.Events[i] != orig.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, got.Events[i], orig.Events[i])
		}
	}
}

func TestWriteToRejectsInvalid(t *testing.T) {
	bad := sample()
	bad.Name = ""
	var buf bytes.Buffer
	if _, err := bad.WriteTo(&buf); err == nil {
		t.Error("invalid trace written")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad name":      "name\n",
		"bad fields":    "name x\n100 tap\n",
		"bad timestamp": "name x\nzzz tap 1\n",
		"bad arg":       "name x\n100 tap zzz\n",
		"unsorted":      "name x\n100 tap 1\n50 tap 1\n",
		"missing name":  "100 tap 1\n",
	}
	for label, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", label, text)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	text := "# header\n\nname chess\n# event below\n1000 move 4\n"
	tr, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "chess" || len(tr.Events) != 1 || tr.Events[0].Arg != 4 {
		t.Errorf("parsed %+v", tr)
	}
}

func TestRecorderSortsEvents(t *testing.T) {
	r := NewRecorder("session")
	r.Add(300, "b", 0)
	r.Add(100, "a", 0)
	r.Add(200, "c", 0)
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Kind != "a" || tr.Events[1].Kind != "c" || tr.Events[2].Kind != "b" {
		t.Errorf("events not sorted: %+v", tr.Events)
	}
}

func TestRecorderRejectsBadEvents(t *testing.T) {
	r := NewRecorder("s")
	r.Add(100, "", 0)
	if _, err := r.Finish(); err == nil {
		t.Error("empty kind accepted by recorder")
	}
}

// TestRecorderReset checks that a reset recorder generates a new session
// into its old event array when that holds the new bound, allocates
// exactly the bound when it does not, and sorts stably: events at one
// instant keep the order they were added in.
func TestRecorderReset(t *testing.T) {
	r := new(Recorder)
	r.Reset("first", 4)
	r.Add(200, "b", 1)
	r.Add(100, "a", 0)
	r.Add(200, "b", 2)
	first, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cap(first.Events) != 4 || first.Events[1].Arg != 1 || first.Events[2].Arg != 2 {
		t.Fatalf("first session: %+v, capacity %d", first.Events, cap(first.Events))
	}
	array := &first.Events[:1][0]

	r.Reset("second", 3)
	r.Add(50, "c", 3)
	second, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if second.Name != "second" || len(second.Events) != 1 || &second.Events[0] != array {
		t.Errorf("a reset within capacity: %q %+v, same array %v", second.Name, second.Events, &second.Events[0] == array)
	}

	r.Reset("third", 9)
	if tr, _ := r.Finish(); len(tr.Events) != 0 || cap(tr.Events) != 9 {
		t.Errorf("a reset past capacity: %d events, capacity %d, want 0 and exactly 9", len(tr.Events), cap(tr.Events))
	}
}
