package compress

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"lbchat/internal/simrand"
)

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	flat := []float64{0.1, -5, 3, 0, -0.2, 4}
	sp := TopK(flat, 3)
	if sp.K() != 3 {
		t.Fatalf("K = %d", sp.K())
	}
	want := map[int]float64{1: -5, 5: 4, 2: 3}
	for i, idx := range sp.Indices {
		if v, ok := want[idx]; !ok || v != sp.Values[i] {
			t.Errorf("kept (%d, %v), want one of %v", idx, sp.Values[i], want)
		}
	}
}

func TestTopKIndicesSorted(t *testing.T) {
	flat := []float64{9, -8, 7, -6, 5}
	sp := TopK(flat, 4)
	if !sort.IntsAreSorted(sp.Indices) {
		t.Errorf("indices not sorted: %v", sp.Indices)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	flat := []float64{1, 2, 3}
	if sp := TopK(flat, 0); sp.K() != 0 || sp.Len != 3 {
		t.Error("k=0 broken")
	}
	if sp := TopK(flat, 99); sp.K() != 3 {
		t.Error("k>n not clamped")
	}
	if sp := TopK(flat, -1); sp.K() != 0 {
		t.Error("negative k not clamped")
	}
	if sp := TopK(nil, 1); sp.K() != 0 || sp.Len != 0 {
		t.Error("empty input broken")
	}
}

func TestTopKTies(t *testing.T) {
	flat := []float64{1, 1, 1, 1}
	sp := TopK(flat, 2)
	if sp.K() != 2 {
		t.Fatalf("tie handling kept %d", sp.K())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	flat := []float64{0.5, -2, 0, 3}
	sp := TopK(flat, 4)
	got := sp.Dense()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("full-k dense differs at %d", i)
		}
	}
	sp = TopK(flat, 2)
	got = sp.Dense()
	want := []float64{0, -2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dense[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestApplyAsUpdate(t *testing.T) {
	flat := []float64{10, -20, 30}
	sp := TopK(flat, 1) // keeps index 2 (30)
	base := []float64{1, 2, 3}
	got, err := sp.ApplyAsUpdate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if base[2] != 3 {
		t.Error("ApplyAsUpdate mutated base")
	}
	if _, err := sp.ApplyAsUpdate([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestWireSizeMonotone(t *testing.T) {
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = float64(i)
	}
	prev := -1
	for k := 0; k <= 1000; k += 100 {
		size := TopK(flat, k).WireSize()
		if size < prev {
			t.Fatalf("wire size not monotone at k=%d: %d < %d", k, size, prev)
		}
		prev = size
	}
	// Never more than dense + header.
	if full := TopK(flat, 1000).WireSize(); full > headerBytes+1000*valueBytes {
		t.Errorf("full-k wire size %d exceeds dense encoding", full)
	}
}

func TestKForPsiAndBack(t *testing.T) {
	n := 10000
	for _, psi := range []float64{0.01, 0.1, 0.5, 0.9} {
		k := KForPsi(n, psi)
		eff := PsiForK(n, k)
		if math.Abs(eff-psi) > 0.01 {
			t.Errorf("psi %v → k %d → eff %v", psi, k, eff)
		}
	}
	if KForPsi(n, 0) != 0 || KForPsi(n, -1) != 0 {
		t.Error("non-positive psi should keep nothing")
	}
	if KForPsi(n, 1) != n || KForPsi(n, 2) != n {
		t.Error("psi ≥ 1 should keep everything")
	}
	if PsiForK(0, 5) != 0 || PsiForK(n, 0) != 0 || PsiForK(n, n) != 1 {
		t.Error("PsiForK edge cases")
	}
}

func TestCompressEnergyProperty(t *testing.T) {
	// The kept coordinates must carry at least as much L2 energy as any
	// other subset of equal size — in particular at least k/n of the total.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		flat := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			flat[i] = math.Mod(v, 1e3)
			total += flat[i] * flat[i]
		}
		k := len(flat)/2 + 1
		sp := TopK(flat, k)
		var kept float64
		for _, v := range sp.Values {
			kept += v * v
		}
		return kept+1e-9 >= total*float64(k)/float64(len(flat))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// topKSort is the sort-based TopK that the selection version replaced,
// kept as its oracle: it sorts a copy of the magnitudes to find the
// threshold, keeps everything above it, fills up with ties in index order
// and sorts the kept pairs by index.
func topKSort(flat []float64, k int) *Sparse {
	n := len(flat)
	k = max(0, min(k, n))
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
	mags := make([]float64, n)
	for i, v := range flat {
		mags[i] = math.Abs(v)
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	threshold := sorted[n-k]
	s.Indices = make([]int, 0, k)
	s.Values = make([]float64, 0, k)
	for i, v := range flat {
		if mags[i] > threshold {
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, v)
		}
	}
	for i, v := range flat {
		if len(s.Indices) >= k {
			break
		}
		if mags[i] == threshold {
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, v)
		}
	}
	type pair struct {
		i int
		v float64
	}
	ps := make([]pair, len(s.Indices))
	for j := range s.Indices {
		ps[j] = pair{s.Indices[j], s.Values[j]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	for j, p := range ps {
		s.Indices[j] = p.i
		s.Values[j] = p.v
	}
	return s
}

// checkTopKOracle asserts TopK and topKSort keep the same indices with
// bit-identical values at k ∈ {1, n/2, n−1} (and k = 0, n).
func checkTopKOracle(t *testing.T, name string, flat []float64) {
	t.Helper()
	n := len(flat)
	for _, k := range []int{0, 1, n / 2, n - 1, n} {
		got, want := TopK(flat, k), topKSort(flat, k)
		if got.Len != want.Len || !reflect.DeepEqual(got.Indices, want.Indices) {
			t.Fatalf("%s n=%d k=%d: indices %v, oracle %v", name, n, k, got.Indices, want.Indices)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("%s n=%d k=%d: %d values, oracle %d", name, n, k, len(got.Values), len(want.Values))
		}
		for i := range got.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s n=%d k=%d: value %d = %v, oracle %v", name, n, k, i, got.Values[i], want.Values[i])
			}
		}
	}
}

func TestTopKMatchesSortOracle(t *testing.T) {
	rng := simrand.New(12)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		flat := make([]float64, n)
		levels := 1 + rng.Intn(6) // few distinct magnitudes → heavy ties
		heavyTies := trial%2 == 0
		for i := range flat {
			if heavyTies {
				flat[i] = float64(rng.Intn(levels)) * 0.25
			} else {
				flat[i] = rng.Normal(0, 1)
			}
			if rng.Bernoulli(0.5) {
				flat[i] = -flat[i]
			}
		}
		checkTopKOracle(t, "random", flat)
	}
	// Large vectors exercise the partition loop well past the base case.
	big := make([]float64, 56168)
	for i := range big {
		big[i] = rng.Normal(0, 1e-2)
	}
	checkTopKOracle(t, "normal-56168", big)
	for i := range big {
		big[i] = float64(i % 7)
	}
	checkTopKOracle(t, "ties-56168", big)
	for i := range big {
		big[i] = float64(i)
	}
	checkTopKOracle(t, "ascending-56168", big)
	for i := range big {
		big[i] = -float64(i)
	}
	checkTopKOracle(t, "descending-56168", big)
}

func TestTopKSpecialValuesMatchOracle(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := map[string][]float64{
		"all-equal":      {3, 3, 3, 3, 3, 3, 3},
		"all-equal-sign": {-2, 2, -2, 2, -2, 2},
		"zeros":          {0, 0, math.Copysign(0, -1), 0, 1e-300, 0},
		"infinities":     {1, -inf, 2, inf, 0, -3, inf},
		"nan-sparse":     {1, nan, -4, 2, nan, 3, 0.5},
		"nan-majority":   {nan, 1, nan, nan, -2, nan, nan},
		"nan-all":        {nan, nan, nan, nan},
		"nan-inf-zero":   {nan, inf, 0, -inf, nan, 0, 5},
	}
	for name, flat := range cases {
		checkTopKOracle(t, name, flat)
		// k = n keeps every entry as is; below that NaN never ranks in.
		for k := 0; k < len(flat); k++ {
			for _, v := range TopK(flat, k).Values {
				if math.IsNaN(v) {
					t.Errorf("%s k=%d: NaN selected", name, k)
				}
			}
		}
	}
}

// topKSink keeps BenchmarkTopK's result live.
var topKSink *Sparse

// BenchmarkTopK keeps an eighth of a delta the size of the default
// policy (56,168 parameters).
func BenchmarkTopK(b *testing.B) {
	rng := simrand.New(3)
	delta := make([]float64, 56168)
	for i := range delta {
		delta[i] = rng.Normal(0, 1e-2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKSink = TopK(delta, len(delta)/8)
	}
}
