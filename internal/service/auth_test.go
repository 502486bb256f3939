package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseTokenFile(t *testing.T) {
	table, err := ParseTokenFile([]byte(`
# experiment drivers
alice  alice-token  max_queued=2  max_cells=100

bob    bob-token
  carol carol-token max_cells=50
`))
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 {
		t.Fatalf("parsed %d tokens, want 3", table.Len())
	}
	cl, ok := table.Lookup("alice-token")
	if !ok || cl.Name != "alice" || cl.MaxQueued != 2 || cl.MaxCells != 100 {
		t.Fatalf("alice: %+v ok=%v", cl, ok)
	}
	cl, ok = table.Lookup("bob-token")
	if !ok || cl.Name != "bob" || cl.MaxQueued != 0 || cl.MaxCells != 0 {
		t.Fatalf("bob: %+v ok=%v", cl, ok)
	}
	if _, ok := table.Lookup("unknown"); ok {
		t.Error("unknown token resolved")
	}
	if cl, ok := table.Limit("carol"); !ok || cl.MaxCells != 50 {
		t.Errorf("Limit(carol): %+v ok=%v", cl, ok)
	}
	if _, ok := table.Limit("nobody"); ok {
		t.Error("Limit resolved a name no token grants")
	}
}

func TestParseTokenFileRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"missing token":    "alice",
		"bad option":       "alice tok nonsense",
		"unknown option":   "alice tok max_ram=3",
		"negative limit":   "alice tok max_queued=-1",
		"non-numeric":      "alice tok max_cells=lots",
		"duplicate token":  "alice tok\nbob tok",
		"duplicate name":   "alice tok1\nalice tok2",
		"equals in name":   "a=b tok",
		"equals in token":  "alice to=k",
		"option-only line": "max_queued=3 max_cells=4",
	}
	for name, input := range cases {
		if _, err := ParseTokenFile([]byte(input)); err == nil {
			t.Errorf("%s: %q parsed without error", name, input)
		}
	}
	// An empty or comment-only file is a valid (empty) table.
	table, err := ParseTokenFile([]byte("\n# nothing here\n"))
	if err != nil || table.Len() != 0 {
		t.Errorf("empty file: %v, %d tokens", err, table.Len())
	}
}

// FuzzTokenFileParse asserts the parser never panics and that every
// accepted table is internally coherent (no '=' in names, non-negative
// limits).
func FuzzTokenFileParse(f *testing.F) {
	f.Add([]byte("alice tok max_queued=2 max_cells=10"))
	f.Add([]byte("# comment\n\nbob b-tok\n"))
	f.Add([]byte("a b\nc d\ne f max_queued=0"))
	f.Add([]byte("x"))
	f.Add([]byte("a=b c"))
	f.Add([]byte("n t max_queued=99999999999999999999"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ParseTokenFile(data)
		if err != nil {
			return
		}
		for token, cl := range table.byToken {
			if token == "" || cl.Name == "" {
				t.Fatalf("accepted empty token or name: %q -> %+v", token, cl)
			}
			if strings.ContainsAny(token, " \t\n") || strings.ContainsAny(cl.Name, " \t\n") {
				t.Fatalf("accepted whitespace in token or name: %q -> %+v", token, cl)
			}
			if cl.MaxQueued < 0 || cl.MaxCells < 0 {
				t.Fatalf("accepted negative limit: %+v", cl)
			}
		}
	})
}

// authTable builds the table the auth tests share.
func authTable(t *testing.T) *AuthTable {
	t.Helper()
	table, err := ParseTokenFile([]byte(
		"alice alice-token max_queued=1\n" +
			"bob bob-token max_cells=6\n" +
			"carol carol-token\n"))
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestAuthRequired pins the bearer-token gate: without a valid token every
// endpoint but /healthz answers a structured 401; with one, the job
// carries the client's identity.
func TestAuthRequired(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1, Auth: authTable(t)})
	ctx := context.Background()

	// No token.
	if _, err := c.Submit(ctx, testSpec(1)); !isAPIError(err, 401, CodeUnauthorized) {
		t.Fatalf("tokenless submit: %v", err)
	}
	if _, err := c.Jobs(ctx); !isAPIError(err, 401, CodeUnauthorized) {
		t.Errorf("tokenless list: %v", err)
	}

	// Wrong token.
	bad := &Client{Base: c.Base, Token: "stolen"}
	if _, err := bad.Submit(ctx, testSpec(1)); !isAPIError(err, 401, CodeUnauthorized) {
		t.Fatalf("bad-token submit: %v", err)
	}

	// Liveness stays open.
	resp, err := http.Get(c.url("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz behind auth: %d", resp.StatusCode)
	}

	// Right token: accepted, and the job is labelled with the client.
	alice := &Client{Base: c.Base, Token: "alice-token"}
	st, err := alice.Submit(ctx, testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Client != "alice" {
		t.Errorf("job client %q, want alice", st.Client)
	}
	final, err := alice.Wait(ctx, st.ID, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("authed job: %+v, %v", final, err)
	}
}

// TestQuotaEnforced pins both quota axes: max_queued bounds live jobs,
// max_cells bounds summed grid cells, the rejection is a structured 429
// whose Usage names the offender's holdings, and a terminal job frees its
// share.
func TestQuotaEnforced(t *testing.T) {
	s, c := newTestServer(t, Config{
		Workers: 1, MaxActiveJobs: 1, Auth: authTable(t),
		CellDelay: 10 * time.Millisecond, RetryAfter: 5 * time.Second,
	})
	ctx := context.Background()
	alice := &Client{Base: c.Base, Token: "alice-token"}
	bob := &Client{Base: c.Base, Token: "bob-token"}
	carol := &Client{Base: c.Base, Token: "carol-token"}

	// alice: max_queued=1. One live job, then 429.
	first, err := alice.Submit(ctx, testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = alice.Submit(ctx, testSpec(1))
	if !isAPIError(err, 429, CodeQuotaExceeded) {
		t.Fatalf("over-quota submit: %v", err)
	}
	var apiErr *APIError
	errors.As(err, &apiErr)
	if apiErr.Usage == nil || apiErr.Usage.Client != "alice" ||
		apiErr.Usage.Jobs != 1 || apiErr.Usage.MaxJobs != 1 {
		t.Fatalf("quota usage: %+v", apiErr.Usage)
	}
	if apiErr.RetryAfter != 5*time.Second {
		t.Errorf("quota RetryAfter %v", apiErr.RetryAfter)
	}

	// bob: max_cells=6. A 4-cell job fits; a second 4-cell job would sum
	// to 8 and is rejected with the cell usage.
	if _, err := bob.Submit(ctx, testSpec(4)); err != nil {
		t.Fatal(err)
	}
	_, err = bob.Submit(ctx, testSpec(4))
	if !isAPIError(err, 429, CodeQuotaExceeded) {
		t.Fatalf("over-cell submit: %v", err)
	}
	errors.As(err, &apiErr)
	if apiErr.Usage == nil || apiErr.Usage.Cells != 4 || apiErr.Usage.MaxCells != 6 {
		t.Fatalf("cell usage: %+v", apiErr.Usage)
	}

	// carol has no limits: quota never rejects her.
	for i := 0; i < 3; i++ {
		if _, err := carol.Submit(ctx, testSpec(1)); err != nil {
			t.Fatalf("unlimited client submit %d: %v", i, err)
		}
	}

	// A terminal job frees alice's slot.
	if _, err := alice.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, alice, first.ID)
	if _, err := alice.Submit(ctx, testSpec(1)); err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}

	// Anonymous in-process submits bypass quota (no identity to bill).
	if _, err := s.Submit(testSpec(1)); err != nil {
		t.Fatalf("anonymous in-process submit: %v", err)
	}
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}
