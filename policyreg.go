package clocksched

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clocksched/internal/policy"
)

// This file is the extensible policy registry, the one way to name a
// policy. A policy is named by a PolicyRef — a registry name plus a flat
// numeric parameter map, written as text "name:key=value,..." — and
// materialized through the builder registered under that name. The five
// paper policies and the deadline-feasible zoo (OA, AVR, BKP) are
// pre-registered below; further families plug in with RegisterPolicy and
// need no changes to clocksched.go.
//
// A Policy built from a ref keeps the ref alongside its resolved fields, so
// it serializes in the compact {"name": ..., "params": ...} wire form
// inside a SweepSpec and reconstructs through the receiving process's
// registry. Its Name(), validation, and execution are exactly those of the
// resolved fields: NewPolicy("past-peg-peg", nil) runs identically to the
// flat literal Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}
// that specs written before the registry carry, so Table 2 rows and result
// semantics are stable across the two forms.

// PolicyRef names a registered policy and its parameters. The zero Params
// map selects every default. Params values are plain float64s so the ref
// round-trips through JSON canonically; booleans are 0/1 and enumerations
// (like speed setters) are small integer codes documented per policy.
type PolicyRef struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`

	// wire, if set, is the ref's gob form, which GobEncode returns as it
	// is. Only an envelope encode sets it, on its own copies of the refs it
	// writes, so that each run of equal refs is encoded once (refRuns).
	wire []byte
}

// Build materializes the referenced policy through the registry.
func (r PolicyRef) Build() (Policy, error) { return NewPolicy(r.Name, r.Params) }

// String writes the ref's text form: the name alone, or
// name:key=value,key=value,... with keys sorted and each value in the
// shortest form that parses back to the same float64 bits.
// ParsePolicyRef reverses it exactly.
func (r PolicyRef) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	sep := byte(':')
	for _, k := range slices.Sorted(maps.Keys(r.Params)) {
		b.WriteByte(sep)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(r.Params[k], 'g', -1, 64))
		sep = ','
	}
	return b.String()
}

// ParsePolicyRef reads the text form String writes, "name" or
// "name:key=value,key=value,...", in any key order. It rejects an empty
// name, an empty or repeated key, a key containing ':', ',' or '=', and a
// value that is not a finite float. It checks syntax only: Build resolves
// the name and parameters against the registry.
func ParsePolicyRef(s string) (PolicyRef, error) {
	bad := func(format string, args ...any) (PolicyRef, error) {
		return PolicyRef{}, fmt.Errorf("clocksched: policy %q: %s (want name or name:key=value,...)",
			s, fmt.Sprintf(format, args...))
	}
	name, list, hasParams := strings.Cut(s, ":")
	if name == "" {
		return bad("empty name")
	}
	r := PolicyRef{Name: name}
	if !hasParams {
		return r, nil
	}
	r.Params = map[string]float64{}
	for _, pair := range strings.Split(list, ",") {
		k, v, ok := strings.Cut(pair, "=")
		switch {
		case !ok:
			return bad("parameter %q is not key=value", pair)
		case k == "":
			return bad("empty parameter key")
		case strings.ContainsAny(k, ":,="):
			return bad("parameter key %q contains ':', ',' or '='", k)
		}
		if _, dup := r.Params[k]; dup {
			return bad("parameter %q given twice", k)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
			return bad("parameter %q value %q is not a finite number", k, v)
		}
		r.Params[k] = f
	}
	return r, nil
}

// PolicyBuilder materializes a Policy from a parameter map. Builders must
// be deterministic and must reject parameters they do not understand — a
// misspelled key silently meaning "default" would corrupt a sweep grid.
// The Params helper wraps both concerns.
type PolicyBuilder func(params Params) (Policy, error)

var policyReg = struct {
	sync.RWMutex
	m map[string]PolicyBuilder
}{m: map[string]PolicyBuilder{}}

// RegisterPolicy adds a named policy builder to the registry. Registering
// an empty name, a name containing ':' (which the text form could not
// write), a nil builder, or a name already taken returns an error; names
// are case-sensitive and conventionally lower-kebab-case.
func RegisterPolicy(name string, build PolicyBuilder) error {
	if name == "" {
		return fmt.Errorf("clocksched: RegisterPolicy with empty name")
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("clocksched: RegisterPolicy(%q): a name containing ':' has no text form", name)
	}
	if build == nil {
		return fmt.Errorf("clocksched: RegisterPolicy(%q) with nil builder", name)
	}
	policyReg.Lock()
	defer policyReg.Unlock()
	if _, dup := policyReg.m[name]; dup {
		return fmt.Errorf("clocksched: policy %q already registered", name)
	}
	policyReg.m[name] = build
	return nil
}

// mustRegister is RegisterPolicy for this package's own init-time entries,
// where a failure is a programming error.
func mustRegister(name string, build PolicyBuilder) {
	if err := RegisterPolicy(name, build); err != nil {
		panic(err)
	}
}

// RegisteredPolicies lists every registered policy name, sorted.
func RegisteredPolicies() []string {
	policyReg.RLock()
	defer policyReg.RUnlock()
	names := make([]string, 0, len(policyReg.m))
	for n := range policyReg.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewPolicy materializes the named registered policy. The returned Policy
// carries the ref, so it serializes in the {"name", "params"} wire form and
// its cache identity includes the registry name. Unknown names and unknown
// or out-of-domain parameters are errors: every built policy must pass
// Validate, so a bad parameter fails here rather than when a cell runs.
func NewPolicy(name string, params map[string]float64) (Policy, error) {
	policyReg.RLock()
	build := policyReg.m[name]
	policyReg.RUnlock()
	if build == nil {
		return Policy{}, fmt.Errorf("clocksched: unknown policy %q (registered: %s)",
			name, strings.Join(RegisteredPolicies(), ", "))
	}
	ps := newParams(params)
	p, err := build(ps)
	if err != nil {
		return Policy{}, fmt.Errorf("clocksched: building policy %q: %w", name, err)
	}
	if err := ps.err(); err != nil {
		return Policy{}, fmt.Errorf("clocksched: building policy %q: %w", name, err)
	}
	if err := p.Validate(); err != nil {
		return Policy{}, fmt.Errorf("clocksched: building policy %q: %w", name, err)
	}
	ref := &PolicyRef{Name: name}
	if len(params) > 0 {
		ref.Params = make(map[string]float64, len(params))
		for k, v := range params {
			ref.Params[k] = v
		}
	}
	p.Ref = ref
	return p, nil
}

// Params hands a builder its parameter map with bookkeeping: each Get
// consumes a key, and err reports any keys the builder never consumed, so
// a typo in a sweep spec fails the build instead of silently defaulting.
type Params struct {
	m    map[string]float64
	used map[string]bool
}

func newParams(m map[string]float64) Params {
	return Params{m: m, used: map[string]bool{}}
}

// Get returns the named parameter, or def when absent.
func (p Params) Get(name string, def float64) float64 {
	p.used[name] = true
	if v, ok := p.m[name]; ok {
		return v
	}
	return def
}

// Bool reads a 0/1-coded parameter, erroring via err() on any other value.
func (p Params) Bool(name string, def bool) bool {
	d := 0.0
	if def {
		d = 1
	}
	v := p.Get(name, d)
	if v != 0 && v != 1 {
		p.used[fmt.Sprintf("\x00parameter %q must be 0 or 1", name)] = true // poison: reported by err
	}
	return v != 0
}

// Int reads an integer-valued parameter, erroring via err() on fractions.
func (p Params) Int(name string, def int) int {
	v := p.Get(name, float64(def))
	if v != float64(int(v)) {
		p.used[fmt.Sprintf("\x00parameter %q must be an integer", name)] = true // poison: reported by err
	}
	return int(v)
}

// err reports unconsumed or malformed parameters.
func (p Params) err() error {
	var bad []string
	for k := range p.m {
		if !p.used[k] {
			bad = append(bad, fmt.Sprintf("unknown parameter %q", k))
		}
	}
	for k := range p.used {
		if msg, ok := strings.CutPrefix(k, "\x00"); ok {
			bad = append(bad, msg)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%s", strings.Join(bad, "; "))
}

// setterFromCode decodes the numeric speed-setter encoding used in
// parameter maps: 0 one, 1 double, 2 peg.
func setterFromCode(code int) (SpeedSetter, error) {
	switch code {
	case 0:
		return One, nil
	case 1:
		return Double, nil
	case 2:
		return Peg, nil
	default:
		return "", fmt.Errorf("speed-setter code %d outside 0 (one), 1 (double), 2 (peg)", code)
	}
}

// The five paper policies plus the deadline-feasible zoo, with each
// parameter's default. Flags are 0/1; setter codes are 0 one, 1 double,
// 2 peg; n is the AVG_N decay, 0 for PAST.
//
//	constant       mhz (206.4), low_voltage (0)
//	past-peg-peg   lo_percent (93), hi_percent (98) [policy.BestBounds], voltage_scale (0)
//	pering-avg-n   n (12), up (2), down (2), lo_percent (50), hi_percent (70), voltage_scale (0)
//	deadline       voltage_scale (0)
//	proportional   n (12), target_percent (80), voltage_scale (0)
//	oa, avr, bkp   slack_quanta (3), voltage_scale (0)
//
// In the text form, PAST with one-up, double-down setters and 55%-98%
// bounds is pering-avg-n:down=1,hi_percent=98,lo_percent=55,n=0,up=0, and
// a 132.7 MHz clock at 1.23 V is constant:low_voltage=1,mhz=132.7.
func init() {
	zoo := func(name string) {
		mustRegister(name, func(ps Params) (Policy, error) {
			return Policy{Zoo: name, SlackQuanta: ps.Int("slack_quanta", 3), VoltageScale: ps.Bool("voltage_scale", false)}, nil
		})
	}
	zoo("oa")
	zoo("avr")
	zoo("bkp")
	mustRegister("constant", func(ps Params) (Policy, error) {
		return Policy{Constant: true, MHz: ps.Get("mhz", 206.4), LowVoltage: ps.Bool("low_voltage", false)}, nil
	})
	// The paper's best policy: PAST prediction, peg-peg speed setting,
	// scale up above 98% and down below 93% — policy.BestBounds, the one
	// source of those thresholds.
	mustRegister("past-peg-peg", func(ps Params) (Policy, error) {
		best := policy.BestBounds
		return Policy{Up: Peg, Down: Peg, LoPercent: ps.Int("lo_percent", best.Lo/100),
			HiPercent: ps.Int("hi_percent", best.Hi/100), VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
	mustRegister("pering-avg-n", func(ps Params) (Policy, error) {
		up, err := setterFromCode(ps.Int("up", 2))
		if err != nil {
			return Policy{}, fmt.Errorf("up: %w", err)
		}
		down, err := setterFromCode(ps.Int("down", 2))
		if err != nil {
			return Policy{}, fmt.Errorf("down: %w", err)
		}
		// Pering et al.'s 50%/70% hysteresis bounds by default.
		return Policy{AvgN: ps.Int("n", 12), Up: up, Down: down, LoPercent: ps.Int("lo_percent", 50),
			HiPercent: ps.Int("hi_percent", 70), VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
	mustRegister("deadline", func(ps Params) (Policy, error) {
		return Policy{Deadline: true, VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
	mustRegister("proportional", func(ps Params) (Policy, error) {
		return Policy{Proportional: true, AvgN: ps.Int("n", 12), TargetPercent: ps.Int("target_percent", 80),
			VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
}

// MarshalJSON emits the registry wire form {"name", "params"} for a
// ref-built policy and the flat field form otherwise, so specs written
// before the registry existed keep their exact encoding.
func (p Policy) MarshalJSON() ([]byte, error) {
	if p.Ref != nil {
		return json.Marshal(*p.Ref)
	}
	type plain Policy
	return json.Marshal(plain(p))
}

// UnmarshalJSON accepts both wire forms. The registry form is rebuilt
// through this process's registry, so a SweepSpec naming a policy the
// receiving daemon does not have fails at decode — admission time — rather
// than mid-sweep.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var probe struct {
		Name *string `json:"name"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return err
	}
	if probe.Name != nil {
		var ref PolicyRef
		if err := json.Unmarshal(data, &ref); err != nil {
			return err
		}
		built, err := ref.Build()
		if err != nil {
			return err
		}
		*p = built
		return nil
	}
	type plain Policy
	var pl plain
	if err := json.Unmarshal(data, &pl); err != nil {
		return err
	}
	*p = Policy(pl)
	return nil
}

// policyRefWire is the gob form of a PolicyRef: parameters as parallel
// sorted-key slices, because a Go map gob-encodes in random iteration
// order and EncodeSweepResult promises canonical bytes.
type policyRefWire struct {
	Name string
	Keys []string
	Vals []float64
}

// GobEncode serializes the ref with sorted parameter keys so equal refs
// always produce equal bytes inside EncodeSweepResult envelopes.
func (r PolicyRef) GobEncode() ([]byte, error) {
	if r.wire != nil {
		return r.wire, nil
	}
	w := policyRefWire{Name: r.Name}
	for k := range r.Params {
		w.Keys = append(w.Keys, k)
	}
	sort.Strings(w.Keys)
	w.Vals = make([]float64, len(w.Keys))
	for i, k := range w.Keys {
		w.Vals[i] = r.Params[k]
	}
	return refCodec.encode(&w)
}

// GobDecode reverses GobEncode.
func (r *PolicyRef) GobDecode(data []byte) error {
	var w policyRefWire
	if err := refCodec.decode(data, &w); err != nil {
		return err
	}
	if len(w.Keys) != len(w.Vals) {
		return fmt.Errorf("clocksched: policy ref wire form has %d keys, %d values", len(w.Keys), len(w.Vals))
	}
	*r = PolicyRef{Name: w.Name}
	if len(w.Keys) > 0 {
		r.Params = make(map[string]float64, len(w.Keys))
		for i, k := range w.Keys {
			r.Params[k] = w.Vals[i]
		}
	}
	return nil
}

// cacheString renders the policy canonically for content-addressed cache
// keys. The flat field form has a deterministic %+v rendering; a ref adds
// its name and sorted parameters (a map, so %+v alone would not be
// canonical, and the pointer identity must not leak into the key).
func (p Policy) cacheString() string {
	flat := p
	flat.Ref = nil
	if p.Ref == nil {
		return fmt.Sprintf("%+v", flat)
	}
	keys := make([]string, 0, len(p.Ref.Params))
	for k := range p.Ref.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%+v;ref=%s{", flat, p.Ref.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v,", k, p.Ref.Params[k])
	}
	b.WriteString("}")
	return b.String()
}

// renderSame reports whether p and q render the same cacheString without
// rendering either: the flat fields are equal, MHz bit for bit (0 and -0
// render apart), and both refs, whatever their pointers, are the same.
func (p Policy) renderSame(q Policy) bool {
	pr, qr := p.Ref, q.Ref
	p.Ref, q.Ref = nil, nil
	if p != q || math.Float64bits(p.MHz) != math.Float64bits(q.MHz) {
		return false
	}
	if pr == qr || pr == nil || qr == nil {
		return pr == qr
	}
	return pr.same(qr)
}

// same reports whether r and q carry the same name and parameters, bit
// for bit, so that they render and gob-encode alike.
func (r *PolicyRef) same(q *PolicyRef) bool {
	return r.Name == q.Name && maps.EqualFunc(r.Params, q.Params, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
