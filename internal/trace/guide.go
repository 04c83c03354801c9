package trace

// guideTable maps a uniform draw u to the rank sort.SearchFloat64s(cdf, u)
// returns (the first rank whose cumulative probability reaches u) in
// expected O(1) instead of O(log n). Bucket b of a power-of-two table holds
// the rank the search returns for the bucket's lower edge b/len(start).
// Every draw in bucket b is at least that edge, and the cdf is
// nondecreasing, so a forward scan from start[b] finds the same rank the
// binary search does, for every u >= 0. An alias table would be faster
// still, but it maps draws to different ranks and so changes the stream.
type guideTable struct {
	cdf   []float64
	start []int
}

// newGuideTable builds the table over a nondecreasing cdf with one bucket
// per rank, rounded up to a power of two. With a power-of-two bucket count
// both the edges b/len and the bucket index u·len are exact in float64.
func newGuideTable(cdf []float64) guideTable {
	size := 1
	for size < len(cdf) {
		size <<= 1
	}
	t := guideTable{cdf: cdf, start: make([]int, size)}
	i := 0
	for b := range t.start {
		edge := float64(b) / float64(size)
		for i < len(cdf) && cdf[i] < edge {
			i++
		}
		t.start[b] = i
	}
	return t
}

// rank returns sort.SearchFloat64s(t.cdf, u) for u >= 0: len(cdf) when u
// exceeds every entry.
func (t guideTable) rank(u float64) int {
	b := int(u * float64(len(t.start)))
	if b >= len(t.start) {
		b = len(t.start) - 1
	}
	i := t.start[b]
	for i < len(t.cdf) && t.cdf[i] < u {
		i++
	}
	return i
}
