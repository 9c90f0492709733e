package bitpack

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"palermo/internal/rng"
)

// TestRoundTrip packs arrays at every element width from 1 to 64 bits,
// and the empty and all-zero cases, through gob and back.
func TestRoundTrip(t *testing.T) {
	r := rng.New(1)
	cases := []Uint64s{nil, {}, {0}, {0, 0, 0}, {1}, {^uint64(0)}, {^uint64(0), 0, 1 << 63}}
	for w := 1; w <= 64; w++ {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 1000} {
			vals := make(Uint64s, n)
			for i := range vals {
				vals[i] = r.Uint64() >> (64 - w)
			}
			cases = append(cases, vals)
		}
	}
	for _, in := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct{ A Uint64s }{in}); err != nil {
			t.Fatal(err)
		}
		var out struct{ A Uint64s }
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(in) == 0 && len(out.A) == 0 {
			continue
		}
		if !reflect.DeepEqual(out.A, in) {
			t.Fatalf("round trip of %d elements diverged", len(in))
		}
	}
}

// TestPackedSize: elements cost their largest element's bit width.
func TestPackedSize(t *testing.T) {
	vals := make(Uint32s, 1000)
	for i := range vals {
		vals[i] = 4095 - uint32(i) // at most 12 bits
	}
	b, err := vals.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2 + 1500; len(b) != want {
		t.Fatalf("1000 12-bit elements encode in %d bytes, want %d", len(b), want)
	}
	var back Uint32s
	if err := back.GobDecode(b); err != nil || !reflect.DeepEqual(back, vals) {
		t.Fatalf("decode: %v", err)
	}
}

// TestRejectsMalformed: encodings a packer cannot produce are refused
// rather than decoded into a wrong array or an oversized allocation.
func TestRejectsMalformed(t *testing.T) {
	good, _ := Uint64s{5, 6, 7}.GobEncode() // width 3, count 3, 2 bytes
	for name, b := range map[string][]byte{
		"empty":            {},
		"no count":         {3},
		"width over 32":    append([]byte{33}, good[1:]...),
		"payload short":    good[:len(good)-1],
		"payload long":     append(append([]byte(nil), good...), 0),
		"huge count":       {1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"width 0 nonempty": {0, 2},
	} {
		var s Uint32s
		if err := s.GobDecode(b); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	var s Uint64s
	if err := s.GobDecode(append([]byte{65}, good[1:]...)); err == nil {
		t.Fatal("65-bit elements accepted")
	}
}
