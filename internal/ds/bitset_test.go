package ds

import (
	"testing"
	"testing/quick"
)

// TestBitsetSetClearHas sets values on both sides of word boundaries,
// then clears them all with Reset.
func TestBitsetSetClearHas(t *testing.T) {
	b := NewBitset(130)
	vals := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range vals {
		if b.Has(i) {
			t.Fatalf("Has(%d) = true on empty set", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("Has(%d) = false after Set", i)
		}
	}
	if b.Has(2) || b.Has(62) || b.Has(66) {
		t.Fatal("Set leaked into a neighbouring bit")
	}
	b.Reset()
	for _, i := range vals {
		if b.Has(i) {
			t.Fatalf("Has(%d) = true after Reset", i)
		}
	}
}

// TestBitsetMatchesMap checks Set, Has and Reset against a map-based
// set over random operation sequences.
func TestBitsetMatchesMap(t *testing.T) {
	property := func(ops []uint16) bool {
		const n = 300
		b := NewBitset(n)
		m := map[int]bool{}
		for _, op := range ops {
			if op%61 == 0 {
				b.Reset()
				clear(m)
				continue
			}
			i := int(op) % n
			b.Set(i)
			m[i] = true
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetReset(t *testing.T) {
	b := NewBitset(70)
	b.Set(0)
	b.Set(69)
	b.Reset()
	if len(b.Words()) != 2 {
		t.Fatalf("%d words after Reset, want 2", len(b.Words()))
	}
	for i, w := range b.Words() {
		if w != 0 {
			t.Fatalf("word %d = %#x after Reset, want 0", i, w)
		}
	}
}

// TestRankCountsSetBitsBelow checks Rank against a bit-by-bit count on
// rows of one to three words, at every bit position, and Index against
// Rank at set bits and -1 at clear ones.
func TestRankCountsSetBitsBelow(t *testing.T) {
	property := func(row []uint64) bool {
		if len(row) == 0 || len(row) > 3 {
			return true
		}
		below := 0
		for i := int32(0); i < int32(64*len(row)); i++ {
			set := row[i>>6]&(1<<(i&63)) != 0
			index := -1
			if set {
				index = below
			}
			if Rank(row, i) != below || Index(row, i) != index {
				return false
			}
			if set {
				below++
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if got := Rank([]uint64{^uint64(0), 0b1011}, 67); got != 66 {
		t.Fatalf("Rank at bit 67 of a full word then 0b1011 = %d, want 66", got)
	}
}
