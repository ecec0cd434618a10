package core

import (
	"fmt"

	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/telemetry"
)

// EnsureCoreset returns the vehicle's current coreset, (re)building it when
// it is missing or stale (older than CoresetRefresh). Between rebuilds the
// coreset is maintained by the cheap merge-and-reduce path, matching
// §III-D's two-speed updating.
//
// The default refresh is incremental (DESIGN.md §14): a merge-and-reduce
// partition tree over the vehicle's append-only dataset rebuilds only the
// leaves dirtied since the last refresh (absorbed peer frames, salvages)
// and re-merges their root paths, so refresh cost scales with the data
// added rather than the dataset size. Config.DisableIncrementalCoreset
// selects the original arm instead: one full Algorithm-1 rebuild over a
// LayeringSample-bounded subsample of the whole dataset.
//
// Construction guard (full arm): layering scores every sample with the
// current model; on large expanded datasets we layer a uniformly drawn
// subsample of LayeringSample items and scale coreset weights so they still
// represent the full dataset's total weight. The incremental arm bounds
// scoring per leaf instead (TreeConfig.LeafSample).
func (e *Engine) EnsureCoreset(v *Vehicle) (*coreset.Coreset, error) {
	if v.Core != nil && e.now-v.CoreBuiltAt < e.Cfg.CoresetRefresh {
		return v.Core, nil
	}
	if v.Data.Len() == 0 {
		return nil, fmt.Errorf("core: vehicle %d has no local data", v.ID)
	}
	size := e.Cfg.CoresetSize
	if v.CoresetSizeOverride > 0 {
		size = v.CoresetSizeOverride
	}
	if !e.Cfg.DisableIncrementalCoreset {
		return e.refreshCoresetTree(v, size)
	}
	base := v.Data
	if limit := e.Cfg.LayeringSample; limit > 0 && base.Len() > limit {
		perm := v.rng.Perm(base.Len())[:limit]
		base = v.Data.Subset(perm)
	}
	losses := v.Policy.PerSampleLosses(base.Items())
	method := e.Cfg.CoresetMethod
	if method == 0 {
		method = coreset.MethodLayered
	}
	cs, err := coreset.BuildWith(method, base, losses, size, v.rng.Derive("coreset"))
	if err != nil {
		return nil, fmt.Errorf("core: building coreset for vehicle %d: %w", v.ID, err)
	}
	// Rescale so the coreset represents the FULL dataset's weight, not just
	// the layered subsample's.
	if subTotal := base.TotalWeight(); subTotal > 0 {
		scale := v.Data.TotalWeight() / subTotal
		if scale != 1 {
			scaled := dataset.New(cs.Len())
			for _, it := range cs.Items() {
				scaled.Add(it.Sample, it.Weight*scale)
			}
			cs = coreset.FromDataset(scaled)
		}
	}
	v.Core = cs
	v.CoreBuiltAt = e.now
	e.Emit(telemetry.CoresetRebuilt{Time: e.now, Vehicle: v.ID, Size: cs.Len()})
	return cs, nil
}

// refreshCoresetTree is the incremental refresh arm: it lazily creates the
// vehicle's partition tree, rebuilds the dirty leaves with the current
// policy's losses, and re-merges only the invalidated tree paths. The
// emitted CoresetRebuilt event matches the full arm's; the leaf/merge stats
// flow through the Metrics side channel only, so the event stream stays
// identical in shape across arms and worker/shard counts.
func (e *Engine) refreshCoresetTree(v *Vehicle, size int) (*coreset.Coreset, error) {
	if v.Tree == nil {
		method := e.Cfg.CoresetMethod
		if method == 0 {
			method = coreset.MethodLayered
		}
		v.Tree = coreset.NewTree(coreset.TreeConfig{Method: method})
	}
	cs, stats, err := v.Tree.Refresh(v.Data, size, v.Policy.PerSampleLosses, v.rng.Derive("coreset-tree"))
	if err != nil {
		return nil, fmt.Errorf("core: incremental coreset refresh for vehicle %d: %w", v.ID, err)
	}
	v.Core = cs
	v.CoreBuiltAt = e.now
	e.Emit(telemetry.CoresetRebuilt{Time: e.now, Vehicle: v.ID, Size: cs.Len()})
	if e.obs != nil {
		e.obs.Count(telemetry.MCoresetLeavesRebuilt, int64(stats.LeavesRebuilt))
		e.obs.Count(telemetry.MCoresetLeavesCached, int64(stats.LeavesCached))
		e.obs.Count(telemetry.MCoresetTreeMerges, int64(stats.TreeMerges))
	}
	return cs, nil
}

// AbsorbCoreset expands the vehicle's local dataset with a received peer
// coreset (uniform original weights, §III-D) and refreshes the vehicle's own
// coreset via merge-and-reduce so it summarizes the expanded dataset.
// The vehicle's partition tree, when present, is extended over the appended
// range so the next incremental refresh rebuilds exactly the leaves the
// absorb dirtied — this covers every absorb path (full coresets, SCO, and
// weight-discounted partial salvages alike append through here).
func (e *Engine) AbsorbCoreset(v *Vehicle, peer *coreset.Coreset) error {
	v.Data.Absorb(peer.Data(), v.LocalWeight)
	if v.Tree != nil {
		v.Tree.Extend(v.Data.Len())
	}
	e.Emit(telemetry.CoresetAbsorbed{Time: e.now, Vehicle: v.ID, Frames: peer.Len()})
	if v.Core == nil {
		return nil
	}
	size := e.Cfg.CoresetSize
	if v.CoresetSizeOverride > 0 {
		size = v.CoresetSizeOverride
	}
	prev := v.Core.Len()
	merged, err := coreset.MergeReduce(v.Core, peer, size, v.rng.Derive("reduce"))
	if err != nil {
		return fmt.Errorf("core: merge-reduce for vehicle %d: %w", v.ID, err)
	}
	if dropped := prev + peer.Len() - merged.Len(); dropped > 0 {
		e.Emit(telemetry.CoresetEvicted{Time: e.now, Vehicle: v.ID, Dropped: dropped})
	}
	v.Core = merged
	return nil
}

// EvalSubset returns up to cfg.EvalSubset items of a weighted set, drawn
// uniformly without replacement with the vehicle's stream. Value assessments
// run on this subset to bound computation per chat.
func (e *Engine) EvalSubset(v *Vehicle, items []dataset.Weighted) []dataset.Weighted {
	limit := e.Cfg.EvalSubset
	if limit <= 0 || len(items) <= limit {
		return items
	}
	perm := v.rng.Perm(len(items))[:limit]
	out := make([]dataset.Weighted, limit)
	for i, idx := range perm {
		out[i] = items[idx]
	}
	return out
}
