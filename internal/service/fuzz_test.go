package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"clocksched"
)

// FuzzJobSpecDecode drives the exact decoder the submit handler uses with
// arbitrary bytes. Invariants: the decoder never panics, every rejection is
// a structured *APIError, and anything it accepts survives the rest of the
// admission pipeline (re-marshal, version check, validation, grid sizing)
// without panicking, and a spec's NumCells is the size of the grid it runs.
func FuzzJobSpecDecode(f *testing.F) {
	valid, err := json.Marshal(testSpec(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{}`))
	f.Add(valid)
	f.Add([]byte(`{"sim_version":"clocksched-sim/0"}`))
	f.Add([]byte(`{"sim_version":"x","workloadz":["rect"]}`)) // unknown field
	f.Add([]byte(`{"sim_version":"x","duration":"2s","seeds":[1,2,3]}`))
	f.Add([]byte(`{"duration":-9223372036854775808,"seeds":[18446744073709551615]}`))
	f.Add([]byte(`{"cells":[{"workload":"mpeg","faults":{"sample_drop_prob":0.25}}]}`))
	ranged, err := json.Marshal(func() clocksched.SweepSpec {
		s := testSpec(4)
		s.Range = &clocksched.CellRange{Lo: 1, Hi: 3}
		return s
	}())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ranged)
	f.Add([]byte(`{"axes":`))   // truncated
	f.Add([]byte("\xff\xfe{}")) // invalid UTF-8 prefix
	f.Add([]byte(`[1,2,3]`))    // wrong top-level type
	f.Add([]byte(`{"duration":{}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := DecodeJobSpec(b)
		if err != nil {
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("unstructured decode error: %v", err)
			}
			if apiErr.Status != 400 {
				t.Fatalf("decode rejection with status %d: %v", apiErr.Status, err)
			}
			return
		}
		// Accepted specs must round-trip and must not panic anywhere on the
		// admission path.
		if _, err := json.Marshal(spec); err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v", err)
		}
		cfg, err := spec.Config()
		if err != nil {
			// Past the version stamp only a range that does not fit fails,
			// and such a spec has no cells to run.
			if !errors.Is(err, clocksched.ErrVersionMismatch) && (spec.Range == nil || spec.NumCells() != 0) {
				t.Fatalf("spec.Config: %v", err)
			}
			return
		}
		_ = cfg.Validate()
		if n := cfg.GridSize(); n != spec.NumCells() {
			t.Fatalf("grid has %d cells, NumCells says %d", n, spec.NumCells())
		}
	})
}

// FuzzEventStream serves arbitrary bytes as one SSE connection's body to
// eventsOnce, the parser behind Events. Invariants: it never panics; fn
// sees only events decoded from the body's "data: " lines, in order; and a
// nil error means the last event fn saw was a terminal state.
func FuzzEventStream(f *testing.F) {
	progress, _ := json.Marshal(Event{Type: "progress", State: StateRunning, Done: 1, Total: 2, Seq: 2})
	done, _ := json.Marshal(Event{Type: "state", State: StateDone, Done: 2, Total: 2, Seq: 3,
		Final: &JobStatus{ID: "j1", State: StateDone, Done: 2, Total: 2}})
	f.Add([]byte(nil))
	f.Add([]byte("id: e.2\nevent: progress\ndata: " + string(progress) + "\n\nid: e.3\nevent: state\ndata: " + string(done) + "\n\n"))
	f.Add([]byte("data: " + string(progress) + "\r\n\r\n"))                           // no terminal event
	f.Add([]byte("data: " + string(done)))                                            // no final newline
	f.Add([]byte("data: {\"type\":\"state\",\"state\":\"running\",\"total\":2}\n\n")) // non-terminal state
	f.Add([]byte("data: {\"type\":\"state\",\"state\":\"failed\"}\n"))                // terminal, no final
	f.Add([]byte("data: {\"type\":\"state\",\"state\":\"cancelled\"\n"))              // bad payload
	f.Add([]byte("data:" + string(done) + "\n: comment\nretry: 10\ndata: null\n"))    // no space, null
	f.Add([]byte("id: \ndata: {\"type\":\"progress\",\"final\":{}}\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		// The events the body's data lines decode to, split as the parser
		// splits: on "\n", with one trailing "\r" dropped.
		var want [][]byte
		for _, line := range bytes.Split(body, []byte("\n")) {
			data, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte("\r")), []byte("data: "))
			if !ok {
				continue
			}
			var ev Event
			if json.Unmarshal(data, &ev) != nil {
				break
			}
			b, _ := json.Marshal(ev)
			want = append(want, b)
		}

		c := &Client{Base: "http://peer", Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
		})}
		var got []Event
		var lastID string
		_, _, err := c.eventsOnce(context.Background(), "j1", func(ev Event) error {
			got = append(got, ev)
			return nil
		}, &lastID)

		if len(got) > len(want) {
			t.Fatalf("fn saw %d events; the body has %d decodable data lines", len(got), len(want))
		}
		for i, ev := range got {
			if b, _ := json.Marshal(ev); !bytes.Equal(b, want[i]) {
				t.Fatalf("event %d is %s, the body's data line decodes to %s", i, b, want[i])
			}
		}
		if err == nil {
			if len(got) == 0 {
				t.Fatal("nil error with no event delivered")
			}
			if last := got[len(got)-1]; last.Type != "state" || !last.State.terminal() {
				t.Fatalf("nil error after a non-terminal event %+v", last)
			}
		}
	})
}
