package stats

import "sort"

// SortedBag is an ascending multiset of float64 with rank access, held as
// a list of bounded sorted blocks so that adding or removing a value moves
// at most one block's worth of memory instead of the whole set. It is what
// a sliding window keeps its latency distribution in: each slide adds the
// sorted run of the newest segment and removes the sorted run of the
// oldest, at a cost proportional to the two runs, and a percentile is one
// walk over the block lengths. The zero value is an empty bag. Values must
// not be NaN.
type SortedBag struct {
	// blocks are non-empty and ascending, and so is their concatenation.
	blocks [][]float64
	n      int
	// spare keeps emptied blocks for reuse, so a bag whose size has
	// stopped growing stops allocating.
	spare [][]float64
}

// bagBlock is the capacity of a block: a full block splits in two.
const bagBlock = 256

// SortedBagOf wraps an already ascending slice as a bag without copying
// it. The bag aliases sorted and must only be read.
func SortedBagOf(sorted []float64) SortedBag {
	if len(sorted) == 0 {
		return SortedBag{}
	}
	return SortedBag{blocks: [][]float64{sorted}, n: len(sorted)}
}

// Len returns how many values the bag holds.
func (b *SortedBag) Len() int { return b.n }

// Reset empties the bag, keeping its blocks for reuse.
func (b *SortedBag) Reset() {
	for _, blk := range b.blocks {
		b.spare = append(b.spare, blk[:0])
	}
	b.blocks = b.blocks[:0]
	b.n = 0
}

// At returns the i-th smallest value, 0 <= i < Len.
func (b *SortedBag) At(i int) float64 {
	for _, blk := range b.blocks {
		if i < len(blk) {
			return blk[i]
		}
		i -= len(blk)
	}
	panic("stats: SortedBag.At out of range")
}

// Percentile returns the p-th percentile by nearest rank, exactly as
// PercentileSorted would over the bag's values laid out flat.
func (b *SortedBag) Percentile(p float64) float64 {
	if b.n == 0 {
		return 0
	}
	return b.At(percentileIndex(b.n, p))
}

// Add inserts every value of run, which must be ascending.
func (b *SortedBag) Add(run []float64) {
	bi := 0
	for _, x := range run {
		if len(b.blocks) == 0 {
			b.blocks = append(b.blocks, b.takeBlock())
		}
		bi = b.seek(bi, x)
		blk := b.blocks[bi]
		pos := sort.SearchFloat64s(blk, x)
		blk = append(blk, 0)
		copy(blk[pos+1:], blk[pos:])
		blk[pos] = x
		b.blocks[bi] = blk
		if len(blk) == cap(blk) {
			// Full: move the upper half to a new block right after this one.
			// The next value of the run may belong in either half, and seek
			// picks between them.
			half := len(blk) / 2
			up := append(b.takeBlock(), blk[half:]...)
			b.blocks[bi] = blk[:half]
			b.blocks = append(b.blocks, nil)
			copy(b.blocks[bi+2:], b.blocks[bi+1:])
			b.blocks[bi+1] = up
		}
	}
	b.n += len(run)
}

// Remove deletes one occurrence of every value of run, which must be
// ascending and a sub-multiset of the bag.
func (b *SortedBag) Remove(run []float64) {
	bi := 0
	for _, x := range run {
		bi = b.seek(bi, x)
		blk := b.blocks[bi]
		pos := sort.SearchFloat64s(blk, x)
		if pos == len(blk) || blk[pos] != x {
			panic("stats: SortedBag.Remove of a value not in the bag")
		}
		copy(blk[pos:], blk[pos+1:])
		blk = blk[:len(blk)-1]
		b.blocks[bi] = blk
		switch {
		case len(blk) == 0:
			b.dropBlock(bi)
			if bi == len(b.blocks) && bi > 0 {
				bi--
			}
		case bi+1 < len(b.blocks) && len(blk)+len(b.blocks[bi+1]) <= bagBlock/2:
			// Two sparse neighbours: fold the next one into this one, so
			// the block count stays proportional to the size.
			b.blocks[bi] = append(blk, b.blocks[bi+1]...)
			b.dropBlock(bi + 1)
		}
	}
	b.n -= len(run)
}

// seek returns the first block at or after bi whose last value is not
// below x — the block x belongs in — or the last block.
func (b *SortedBag) seek(bi int, x float64) int {
	for bi < len(b.blocks)-1 && b.blocks[bi][len(b.blocks[bi])-1] < x {
		bi++
	}
	return bi
}

func (b *SortedBag) takeBlock() []float64 {
	if n := len(b.spare); n > 0 {
		blk := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return blk
	}
	return make([]float64, 0, bagBlock)
}

func (b *SortedBag) dropBlock(bi int) {
	b.spare = append(b.spare, b.blocks[bi][:0])
	copy(b.blocks[bi:], b.blocks[bi+1:])
	b.blocks[len(b.blocks)-1] = nil
	b.blocks = b.blocks[:len(b.blocks)-1]
}
