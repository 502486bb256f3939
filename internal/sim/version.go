package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
)

// Version identifies the behavioural revision of the simulation module: the
// engine, kernel, workloads, power model, and policies together. It
// participates in every sweep cache key, so bumping it invalidates all
// previously cached run results. Bump it whenever a change can alter the
// output of any run — a new power calibration, a workload tweak, a policy
// fix — and leave it alone for pure refactors.
//
// sim/3: the DAQ now covers capture windows that are not whole multiples of
// the sample interval (ceiling division plus a last-sample overhang refund
// in Energy), and the cached Result wire format gained the per-run
// telemetry summary.
//
// sim/4: DAQ energy integration is incremental (daq.Integrate): the
// fault-free path quantizes each power-timeline segment once and weights it
// by reading count instead of resampling every 200 µs window, so energy and
// average-power sums accumulate in segment order rather than sample order.
// The readings themselves are unchanged, but floating-point addition is not
// associative, so totals can differ from sim/3 at ULP scale; run results
// also now carry the DAQ digest (daq.Summary) instead of the materialized
// sample array.
const Version = "clocksched-sim/4"

// Hasher accumulates named fields into a canonical, order-sensitive
// encoding and digests them into a content-addressed cache key. Two specs
// hash equal exactly when every field was written with the same name and
// value in the same order, so a key is stable across processes and runs.
//
// The encoding is the concatenation of fmt.Sprintf("%s=%v;", name, value)
// over the fields, streamed into one SHA-256 digest through a fixed
// scratch array rather than built up as a string first. Reset starts a new
// key on the same digest, so one Hasher can hash key after key.
type Hasher struct {
	d       hash.Hash
	scratch [256]byte // fits a policy or fault-plan rendering
}

// NewHasher starts a key for the given domain (e.g. "clocksched.Config"),
// bound to the current simulation Version.
func NewHasher(domain string) *Hasher {
	return NewHasherAt(domain, Version)
}

// NewHasherAt starts a key bound to an explicit version string. It exists
// so cache-invalidation tests can prove that a version bump changes every
// key; production callers use NewHasher.
func NewHasherAt(domain, version string) *Hasher {
	return new(Hasher).Reset(domain, version)
}

// Reset starts a new key, as NewHasherAt(domain, version) would, on h's
// digest.
func (h *Hasher) Reset(domain, version string) *Hasher {
	if h.d == nil {
		h.d = sha256.New()
	} else {
		h.d.Reset()
	}
	return h.Str("domain", domain).Str("version", version)
}

// Field appends one named value. Values must be plain data (numbers,
// strings, booleans, or values with a deterministic String method):
// pointers and maps have no canonical %v rendering and must be flattened by
// the caller before hashing.
func (h *Hasher) Field(name string, v any) *Hasher {
	// Exact built-in types render as %v does without fmt's reflection;
	// everything else, named types and Stringers included, still goes
	// through fmt.
	switch x := v.(type) {
	case string:
		return h.Str(name, x)
	case int64:
		return h.Int(name, x)
	case uint64:
		return h.Uint(name, x)
	case int:
		return h.Int(name, int64(x))
	case bool:
		return h.Bool(name, x)
	}
	return h.write(fmt.Append(h.name(name), v))
}

// Str appends a string field as Field(name, v) does, without boxing v
// into an interface; Int, Uint and Bool do the same for their types.
func (h *Hasher) Str(name, v string) *Hasher { return h.write(append(h.name(name), v...)) }

// Int appends an integer field; see Str.
func (h *Hasher) Int(name string, v int64) *Hasher {
	return h.write(strconv.AppendInt(h.name(name), v, 10))
}

// Uint appends an unsigned integer field; see Str.
func (h *Hasher) Uint(name string, v uint64) *Hasher {
	return h.write(strconv.AppendUint(h.name(name), v, 10))
}

// Bool appends a boolean field; see Str.
func (h *Hasher) Bool(name string, v bool) *Hasher {
	return h.write(strconv.AppendBool(h.name(name), v))
}

// name starts a field's encoding, "name=", in the scratch array.
func (h *Hasher) name(name string) []byte {
	return append(append(h.scratch[:0], name...), '=')
}

// write ends a field's encoding with ';' and digests it.
func (h *Hasher) write(b []byte) *Hasher {
	h.d.Write(append(b, ';')) // a hash.Hash's Write never fails
	return h
}

// Sum returns the hex SHA-256 digest of everything written so far. The
// digest and its hex form are built in the scratch array, so the returned
// string is Sum's only allocation.
func (h *Hasher) Sum() string {
	sum := h.d.Sum(h.scratch[:0])
	hexed := h.scratch[len(sum) : len(sum)+hex.EncodedLen(len(sum))]
	hex.Encode(hexed, sum)
	return string(hexed)
}
