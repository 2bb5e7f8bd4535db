package ds

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
