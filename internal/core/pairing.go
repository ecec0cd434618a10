package core

import "sort"

// CandidatePair is a potential pairwise exchange with its Eq. (5) score.
type CandidatePair struct {
	A, B  int
	Score float64
}

// CandidatePairs enumerates vehicle pairs that are currently able to chat:
// both free (not mid-exchange, past their chat cooldown), present (not
// departed by a churn fault), within radio range, and past the per-pair
// cooldown. score computes the pair's priority; pairs scoring zero or less
// are dropped.
//
// The in-range enumeration goes through the engine's spatial index (cell
// size = radio range), so a tick costs O(F·k) in the free-vehicle count F
// and mean neighborhood size k instead of O(F²). The index returns pairs in
// the same canonical (A, B)-ascending order as the classic double loop and
// confirms every candidate with the exact same distance comparison, so the
// output — and any randomness score draws — is bit-identical to an O(F²)
// double loop over the free vehicles.
func (e *Engine) CandidatePairs(score func(a, b int) float64) []CandidatePair {
	now := e.now
	free := e.freeScratch[:0]
	for _, v := range e.Vehicles {
		if v.BusyUntil <= now && v.NextChatAt <= now && !e.VehicleAway(v.ID) {
			free = append(free, v.ID)
		}
	}
	e.freeScratch = free
	maxRange := e.Radio.Params.MaxRangeMeters
	var out []CandidatePair
	emit := func(a, b int) {
		if last, ok := e.Vehicles[a].lastChat[b]; ok && now-last < e.Cfg.PairCooldown {
			return
		}
		if s := score(a, b); s > 0 {
			out = append(out, CandidatePair{A: a, B: b, Score: s})
		}
	}
	// One contiguous row read serves every free vehicle's position.
	row := e.Trace.RowAt(now)
	pts := e.spatialPts[:0]
	for _, id := range free {
		pts = append(pts, row[id])
	}
	e.spatialPts = pts
	for _, pr := range e.rangePairs(pts, maxRange) {
		emit(free[pr.A], free[pr.B])
	}
	return out
}

// GreedyMatch selects a maximal set of disjoint pairs in descending score
// order — each vehicle chats with at most one peer at a time, and every
// vehicle prefers its highest-scoring available neighbor, which realizes the
// Eq. (5) exchange-sequence determination across the fleet. Ties break by
// (A, B) for determinism.
//
// The standalone function allocates its taken-set per call; protocols on a
// live engine should prefer (*Engine).GreedyMatch, which reuses an
// ID-indexed scratch slice across ticks.
func GreedyMatch(pairs []CandidatePair) []CandidatePair {
	out, _ := greedyMatch(pairs, nil)
	return out
}

// GreedyMatch is the engine-scoped variant of the package-level function:
// identical selection, but the vehicle-taken set is a reusable []bool keyed
// by vehicle ID instead of a per-tick map allocation.
func (e *Engine) GreedyMatch(pairs []CandidatePair) []CandidatePair {
	out, taken := greedyMatch(pairs, e.matchTaken)
	e.matchTaken = taken
	return out
}

// greedyMatch implements the selection over a caller-provided taken scratch
// ([]bool indexed by vehicle ID, grown as needed), returning the possibly
// regrown scratch for reuse.
func greedyMatch(pairs []CandidatePair, taken []bool) ([]CandidatePair, []bool) {
	sorted := append([]CandidatePair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	maxID := -1
	for _, p := range sorted {
		if p.A > maxID {
			maxID = p.A
		}
		if p.B > maxID {
			maxID = p.B
		}
	}
	if cap(taken) < maxID+1 {
		taken = make([]bool, maxID+1)
	}
	taken = taken[:maxID+1]
	for i := range taken {
		taken[i] = false
	}
	var out []CandidatePair
	for _, p := range sorted {
		if taken[p.A] || taken[p.B] {
			continue
		}
		taken[p.A] = true
		taken[p.B] = true
		out = append(out, p)
	}
	return out, taken
}

// MarkChatted stamps the pair's cooldown bookkeeping.
func (e *Engine) MarkChatted(a, b int, busyUntil float64) {
	va, vb := e.Vehicles[a], e.Vehicles[b]
	va.BusyUntil = busyUntil
	vb.BusyUntil = busyUntil
	va.NextChatAt = busyUntil + e.Cfg.ChatCooldown
	vb.NextChatAt = busyUntil + e.Cfg.ChatCooldown
	va.lastChat[b] = e.now
	vb.lastChat[a] = e.now
}
