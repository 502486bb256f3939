package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fuzzStringer is a named type with a String method, which the Hasher
// must render through fmt as %v does.
type fuzzStringer int64

func (s fuzzStringer) String() string { return fmt.Sprintf("stringer<%d>", int64(s)) }

// fuzzKind is a named string without a String method.
type fuzzKind string

// fuzzFields decodes data into a sequence of (name, value) pairs: a kind
// byte, a length-prefixed name, then a value of that kind.
func fuzzFields(data []byte) (names []string, values []any) {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	word := func() uint64 {
		var buf [8]byte
		copy(buf[:], take(8))
		return binary.LittleEndian.Uint64(buf[:])
	}
	str := func() string {
		n := 0
		if b := take(1); len(b) == 1 {
			n = int(b[0] % 48)
		}
		return string(take(n))
	}
	for len(data) > 0 {
		kind := take(1)[0] % 8
		names = append(names, str())
		var v any
		switch kind {
		case 0:
			v = str()
		case 1:
			v = int64(word())
		case 2:
			v = word()
		case 3:
			v = int(word())
		case 4:
			v = word()&1 == 1
		case 5:
			v = math.Float64frombits(word())
		case 6:
			v = fuzzStringer(word())
		case 7:
			v = fuzzKind(str())
		}
		values = append(values, v)
	}
	return names, values
}

// FuzzHasherField checks that the Hasher's digest is the SHA-256 of the
// fmt.Sprintf("%s=%v;") concatenation of its fields, whatever their
// types: the fmt-free paths for built-in types must render exactly as fmt
// does, or every cache key and journal record would move. It also hashes
// every input on one Hasher reset after an unrelated key, which must
// digest alike: nothing of a reset hasher's last key may leak into its
// next.
func FuzzHasherField(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 's', 'e', 'e', 'd', 3, 'a', 'b', 'c'})
	f.Add([]byte{1, 1, 'x', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{4, 0, 1, 5, 1, 'f', 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 6, 2, 'o', 'k', 9})
	f.Add([]byte{7, 3, 'w', 'l', '=', 4, 'w', 'e', 'b', ';', 3, 0, 0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		names, values := fuzzFields(data)
		h := NewHasherAt("fuzz", "v1")
		var want strings.Builder
		fmt.Fprintf(&want, "%s=%v;%s=%v;", "domain", "fuzz", "version", "v1")
		for i, name := range names {
			h.Field(name, values[i])
			fmt.Fprintf(&want, "%s=%v;", name, values[i])
		}
		sum := sha256.Sum256([]byte(want.String()))
		if got := h.Sum(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("Sum() = %s, want sha256 of %q", got, want.String())
		}
		reused := NewHasherAt("other", "v0").Field("seed", int64(len(data))).Field("x", data)
		reused.Sum()
		reused.Reset("fuzz", "v1")
		for i, name := range names {
			reused.Field(name, values[i])
		}
		if got := reused.Sum(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("reset hasher's Sum() = %s, want sha256 of %q", got, want.String())
		}
	})
}

// TestHasherSumAllocs checks that hashing a key on a reset Hasher
// allocates only the key: the digest is reused and Sum hex-encodes in the
// scratch array, so the 64-byte string is the one allocation.
func TestHasherSumAllocs(t *testing.T) {
	h := NewHasher("test")
	var key string
	allocs := testing.AllocsPerRun(100, func() {
		key = h.Reset("test", Version).Str("workload", "web").Uint("seed", 1<<40).
			Int("duration", -2e9).Bool("trace", true).Sum()
	})
	if allocs != 1 || len(key) != 64 {
		t.Errorf("a key on a reset hasher allocates %v times (key %q), want once", allocs, key)
	}
}

func TestHasherSumIsRepeatable(t *testing.T) {
	h := NewHasher("test").Field("a", int64(-3)).Field("b", true)
	first := h.Sum()
	if again := h.Sum(); again != first {
		t.Fatalf("second Sum() = %s, first %s", again, first)
	}
	if h.Field("c", "x").Sum() == first {
		t.Fatal("a further field did not change the digest")
	}
}
