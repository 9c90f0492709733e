// Package bitpack gives integer arrays a compact gob encoding: every
// element is stored in the bit width of the largest one, so a checkpoint
// array of 12-bit leaves costs 1.5 bytes per element instead of the 3 a
// gob varint takes. The arrays stay ordinary slices in memory.
//
// Encoding: one byte of width (1..64; an empty array encodes width 0),
// the element count as a uvarint, then the elements as a little-endian
// bit stream of exactly ceil(count*width/8) bytes.
package bitpack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Uint64s is a []uint64 whose gob encoding is bit-packed.
type Uint64s []uint64

// Uint32s is a []uint32 whose gob encoding is bit-packed.
type Uint32s []uint32

// GobEncode implements gob.GobEncoder.
func (s Uint64s) GobEncode() ([]byte, error) { return pack(s), nil }

// GobDecode implements gob.GobDecoder.
func (s *Uint64s) GobDecode(b []byte) (err error) {
	*s, err = unpack[uint64](b, 64)
	return err
}

// GobEncode implements gob.GobEncoder.
func (s Uint32s) GobEncode() ([]byte, error) { return pack(s), nil }

// GobDecode implements gob.GobDecoder.
func (s *Uint32s) GobDecode(b []byte) (err error) {
	*s, err = unpack[uint32](b, 32)
	return err
}

func pack[T uint32 | uint64](vals []T) []byte {
	var or T
	for _, v := range vals {
		or |= v
	}
	// At least one bit per element, so the payload length bounds the
	// count a decoder will allocate for.
	w := max(bits.Len64(uint64(or)), 1)
	if len(vals) == 0 {
		w = 0
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen64+(len(vals)*w+7)/8)
	out = append(out, byte(w))
	out = binary.AppendUvarint(out, uint64(len(vals)))
	var acc uint64
	n := 0 // bits pending in acc, always < 64
	for _, v := range vals {
		x := uint64(v)
		acc |= x << n
		if n+w < 64 {
			n += w
			continue
		}
		out = binary.LittleEndian.AppendUint64(out, acc)
		acc = x >> (64 - n) // the bits that did not fit; 0 when n == 0
		n += w - 64
	}
	for ; n > 0; n -= 8 {
		out = append(out, byte(acc))
		acc >>= 8
	}
	return out
}

func unpack[T uint32 | uint64](b []byte, maxWidth int) ([]T, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("bitpack: empty encoding")
	}
	w := int(b[0])
	count, k := binary.Uvarint(b[1:])
	if k <= 0 {
		return nil, fmt.Errorf("bitpack: malformed element count")
	}
	data := b[1+k:]
	switch {
	case w > maxWidth:
		return nil, fmt.Errorf("bitpack: %d-bit elements, at most %d allowed", w, maxWidth)
	case w == 0 && (count != 0 || len(data) != 0):
		return nil, fmt.Errorf("bitpack: width 0 with %d elements and %d payload bytes", count, len(data))
	case count > uint64(len(data))*8 || (count*uint64(w)+7)/8 != uint64(len(data)):
		return nil, fmt.Errorf("bitpack: %d %d-bit elements in %d payload bytes", count, w, len(data))
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]T, count)
	mask := uint64(1)<<w - 1 // all ones when w == 64
	var acc uint64
	n := 0 // bits pending in acc
	for i := range out {
		if n >= w {
			out[i] = T(acc & mask)
			acc >>= w
			n -= w
			continue
		}
		var next uint64
		got := 64
		if len(data) >= 8 {
			next = binary.LittleEndian.Uint64(data)
			data = data[8:]
		} else {
			for j := len(data) - 1; j >= 0; j-- {
				next = next<<8 | uint64(data[j])
			}
			got = 8 * len(data)
			data = nil
		}
		out[i] = T((acc | next<<n) & mask)
		used := w - n // bits of next that element i took
		acc = next >> used
		n = got - used
	}
	return out, nil
}
