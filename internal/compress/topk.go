package compress

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Bytes-per-entry constants for compressed payload sizing.
const (
	// valueBytes is the wire size of one parameter value (float32).
	valueBytes = 4
	// indexBytes is the wire size of one parameter index (uint32).
	indexBytes = 4
	// headerBytes covers magic + counts.
	headerBytes = 12
)

// Sparse is a top-k sparsified model: the k largest-magnitude parameters as
// index–value pairs, plus the dense length for reconstruction.
type Sparse struct {
	// Len is the dense parameter count.
	Len int
	// Indices are the kept parameter positions, strictly increasing.
	Indices []int
	// Values are the kept parameter values, parallel to Indices.
	Values []float64
}

// K returns the number of retained parameters.
func (s *Sparse) K() int { return len(s.Indices) }

// WireSize returns the transmission size in bytes. When more than half the
// parameters are kept, a dense encoding (bitmap-free, full vector) is
// cheaper and is what the size accounts for — so WireSize is monotone in K
// and never exceeds the uncompressed size plus header.
func (s *Sparse) WireSize() int {
	sparse := headerBytes + s.K()*(indexBytes+valueBytes)
	dense := headerBytes + s.Len*valueBytes
	if sparse < dense {
		return sparse
	}
	return dense
}

// KForPsi returns the number of parameters to keep so that the compressed
// size is approximately ψ × the uncompressed size. ψ is clamped to [0, 1].
func KForPsi(numParams int, psi float64) int {
	if psi <= 0 {
		return 0
	}
	if psi >= 1 {
		return numParams
	}
	// Budget in bytes relative to the dense payload.
	budget := psi * float64(numParams*valueBytes)
	k := int(budget / float64(indexBytes+valueBytes))
	if k > numParams {
		k = numParams
	}
	if k < 1 {
		k = 1
	}
	return k
}

// PsiForK returns the effective ψ (relative payload size) of keeping k
// parameters out of numParams.
func PsiForK(numParams, k int) float64 {
	if numParams == 0 || k <= 0 {
		return 0
	}
	if k >= numParams {
		return 1
	}
	return math.Min(1, float64(k*(indexBytes+valueBytes))/float64(numParams*valueBytes))
}

// TopK sparsifies a dense parameter vector to its k largest-magnitude
// entries. k is clamped to [0, len(flat)].
//
// The threshold is the magnitude that ascending order puts at position
// n−k, found by quickselect in O(n). The kept set is every entry above
// the threshold plus the lowest-index entries equal to it, up to k,
// emitted in index order. NaN ranks below every magnitude and is never
// kept for k < n; if the threshold itself falls on a NaN, nothing is
// kept. φ fitting calls this once per ψ sample on each side of a chat,
// so it must not sort.
func TopK(flat []float64, k int) *Sparse {
	n := len(flat)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	s := &Sparse{Len: n}
	if k == 0 {
		return s
	}
	if k == n {
		s.Indices = make([]int, n)
		s.Values = make([]float64, n)
		for i, v := range flat {
			s.Indices[i] = i
			s.Values[i] = v
		}
		return s
	}
	// Magnitudes with NaN mapped below every real one (−1), so the select
	// compares with a plain total order.
	mags := make([]float64, n)
	for i, v := range flat {
		if m := math.Abs(v); m == m {
			mags[i] = m
		} else {
			mags[i] = -1
		}
	}
	threshold := selectNth(mags, n-k)
	if threshold < 0 {
		threshold = math.NaN()
	}
	above := 0
	for _, m := range mags {
		if m > threshold {
			above++
		}
	}
	ties := k - above
	s.Indices = make([]int, 0, k)
	s.Values = make([]float64, 0, k)
	for i, v := range flat {
		m := math.Abs(v)
		if m > threshold || (m == threshold && ties > 0) {
			if m == threshold {
				ties--
			}
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, v)
		}
	}
	return s
}

// selectNth returns the value that ascending order puts at position p of
// a, reordering a in place. a must hold no NaN. Three-way partitioning
// keeps runs of equal values linear; a depth budget falls back to sorting
// the remaining range, bounding the worst case at O(n log n).
func selectNth(a []float64, p int) float64 {
	lo, hi := 0, len(a)
	budget := 2 * bits.Len(uint(len(a)))
	for hi-lo > 1 {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			return a[p]
		}
		budget--
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// [lo,lt) < pivot, [lt,i) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case p < lt:
			hi = lt
		case p >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	return a[p]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// Compress sparsifies flat to the level ψ (relative payload size).
func Compress(flat []float64, psi float64) *Sparse {
	return TopK(flat, KForPsi(len(flat), psi))
}

// Dense reconstructs the dense vector, zero-filling dropped parameters —
// the standard biased top-k decompression.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Len)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out
}

// ApplyAsUpdate reconstructs a dense vector using base for the dropped
// coordinates: kept coordinates take the transmitted values, dropped ones
// keep the receiver's own parameters. This is how a receiver materializes a
// compressed peer model for evaluation and aggregation without zero-holes.
func (s *Sparse) ApplyAsUpdate(base []float64) ([]float64, error) {
	if len(base) != s.Len {
		return nil, fmt.Errorf("compress: base length %d != sparse length %d", len(base), s.Len)
	}
	out := append([]float64(nil), base...)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out, nil
}
