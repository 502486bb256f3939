package clocksched

import (
	"encoding/json"
	"testing"
)

// FuzzParamsDecode hammers the policy wire-form decoder with arbitrary
// bytes and checks the registry's decode-time invariants: a payload the
// decoder accepts must yield a policy whose Name() renders, whose JSON
// re-encoding decodes back to the same name, and — if registry-built, since
// NewPolicy validates every policy it builds — must already satisfy
// Validate(). Builders reject unknown keys, fractional integers, and
// out-of-domain values at decode, so a sweep spec admitted by a daemon can
// never smuggle in a policy the registry would refuse to build.
func FuzzParamsDecode(f *testing.F) {
	f.Add([]byte(`{"name":"oa"}`))
	f.Add([]byte(`{"name":"avr","params":{"slack_quanta":4}}`))
	f.Add([]byte(`{"name":"bkp","params":{"voltage_scale":1}}`))
	f.Add([]byte(`{"name":"oa","params":{"slack_quanta":2.5}}`))
	f.Add([]byte(`{"name":"avr","params":{"bogus":1}}`))
	f.Add([]byte(`{"name":"past-peg-peg","params":{"lo_percent":89,"hi_percent":96}}`))
	f.Add([]byte(`{"name":"pering-avg-n","params":{"n":9,"up":1,"down":2}}`))
	f.Add([]byte(`{"name":"constant","params":{"mhz":147.5,"low_voltage":1}}`))
	f.Add([]byte(`{"name":"not-registered"}`))
	f.Add([]byte(`{"deadline":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Policy
		if err := json.Unmarshal(data, &p); err != nil {
			return // rejected at decode: nothing to hold invariants on
		}
		name := p.Name() // must not panic on any accepted payload
		if p.Ref == nil {
			return // legacy flat form: not registry-built, no builder promises
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("registry policy decoded from %q fails Validate: %v", data, err)
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-encoding decoded policy: %v", err)
		}
		var q Policy
		if err := json.Unmarshal(wire, &q); err != nil {
			t.Fatalf("re-decoding %q (from %q): %v", wire, data, err)
		}
		if q.Name() != name {
			t.Fatalf("round trip changed the policy: %q -> %q (wire %q)", name, q.Name(), wire)
		}
	})
}
