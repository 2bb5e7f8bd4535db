package ds

import "math/bits"

// Bitset is a fixed-size set of small non-negative integers backed by
// 64-bit words. The zero value is an empty set of size zero; use
// NewBitset to size it.
type Bitset struct {
	words []uint64
}

// NewBitset returns an empty bitset able to hold values 0..n-1.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Words exposes the backing 64-bit words (⌈n/64⌉ of them for
// NewBitset(n)) for word-parallel set algebra; callers must not resize
// it.
func (b *Bitset) Words() []uint64 { return b.words }

// Reset removes all elements.
func (b *Bitset) Reset() { clear(b.words) }

// Rank returns the number of bits of row set below bit i. A set kept
// as a bitmask row beside a list of its members in ascending order
// finds member i at index Rank(row, i) of that list: the dominating-tree
// packers index their per-class state this way.
func Rank(row []uint64, i int32) int {
	w := int(i >> 6)
	r := bits.OnesCount64(row[w] & (1<<(i&63) - 1))
	for _, word := range row[:w] {
		r += bits.OnesCount64(word)
	}
	return r
}

// Index returns Rank(row, i) when bit i of row is set and -1 when it is
// not: the index of member i in the list beside row, or -1 when i is no
// member. A message that names a class finds the class's per-class
// state this way.
func Index(row []uint64, i int32) int {
	if row[i>>6]&(1<<(i&63)) == 0 {
		return -1
	}
	return Rank(row, i)
}
