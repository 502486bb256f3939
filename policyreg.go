package clocksched

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"clocksched/internal/expt"
)

// This file is the extensible policy registry, the one way to name a
// policy. A policy is named by a PolicyRef — a registry name plus a flat
// numeric parameter map — and materialized through the builder registered
// under that name. The five paper policies and the deadline-feasible zoo
// (OA, AVR, BKP) are pre-registered below; further families plug in with
// RegisterPolicy and need no changes to clocksched.go.
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
}

// Build materializes the referenced policy through the registry.
func (r PolicyRef) Build() (Policy, error) { return NewPolicy(r.Name, r.Params) }

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
// an empty name, a nil builder, or a name already taken returns an error;
// names are case-sensitive and conventionally lower-kebab-case.
func RegisterPolicy(name string, build PolicyBuilder) error {
	if name == "" {
		return fmt.Errorf("clocksched: RegisterPolicy with empty name")
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

// The five paper policies plus the deadline-feasible zoo. Parameter
// documentation:
//
//	constant       mhz (default 206.4), low_voltage (0/1)
//	past-peg-peg   lo_percent (93), hi_percent (98), voltage_scale (0/1)
//	pering-avg-n   n (12), up (2), down (2) [setter codes], voltage_scale
//	deadline       voltage_scale (0/1)
//	proportional   n (12), target_percent (80)
//	oa             slack_quanta (3), voltage_scale (0/1)
//	avr            slack_quanta (3), voltage_scale (0/1)
//	bkp            slack_quanta (3), voltage_scale (0/1)
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
	// scale up above 98% and down below 93%.
	mustRegister("past-peg-peg", func(ps Params) (Policy, error) {
		return Policy{Up: Peg, Down: Peg, LoPercent: ps.Int("lo_percent", 93), HiPercent: ps.Int("hi_percent", 98),
			VoltageScale: ps.Bool("voltage_scale", false)}, nil
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
		// Pering et al.'s 50%/70% hysteresis bounds.
		return Policy{AvgN: ps.Int("n", 12), Up: up, Down: down, LoPercent: 50, HiPercent: 70,
			VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
	mustRegister("deadline", func(ps Params) (Policy, error) {
		return Policy{Deadline: true, VoltageScale: ps.Bool("voltage_scale", false)}, nil
	})
	mustRegister("proportional", func(ps Params) (Policy, error) {
		return Policy{Proportional: true, AvgN: ps.Int("n", 12), TargetPercent: ps.Int("target_percent", 80)}, nil
	})
}

// PolicyZoo enumerates every registered policy, each at its default
// parameters, for the zoo experiment's comparison against the offline
// optimal schedule (expt.ZooComparison). The experiment layer sits below
// this package and cannot read the registry itself, so its callers pass
// this list in. The registry is read at call time, so policies registered
// by other packages or tests join the comparison.
func PolicyZoo() []expt.ZooPolicy {
	names := RegisteredPolicies()
	zoo := make([]expt.ZooPolicy, 0, len(names))
	for _, name := range names {
		zoo = append(zoo, expt.ZooPolicy{
			Name: name,
			Spec: func() (expt.RunSpec, error) {
				p, err := NewPolicy(name, nil)
				if err != nil {
					return expt.RunSpec{}, err
				}
				return p.build()
			},
		})
	}
	return zoo
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
	r.Name = w.Name
	r.Params = nil
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
