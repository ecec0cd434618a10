package world

import (
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/simrand"
)

// twinWorlds builds two identically seeded worlds, one on the spatial-index
// fast path and one on the brute-force reference path.
func twinWorlds(t *testing.T, spawn SpawnConfig) (indexed, brute *World) {
	t.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	build := func(disable bool) *World {
		w, err := New(m, spawn, simrand.New(99))
		if err != nil {
			t.Fatalf("world.New: %v", err)
		}
		w.bruteScan = disable
		return w
	}
	return build(false), build(true)
}

// TestStepSpatialIndexBitIdentical is the world half of the PR's A/B
// acceptance criterion: stepping with the spatial index enabled must yield
// bit-identical trajectories — every car's arc position and speed, every
// pedestrian's position — to the pre-index brute-force scans, tick after
// tick, including the in-step mixed old/new-position query states.
func TestStepSpatialIndexBitIdentical(t *testing.T) {
	wi, wb := twinWorlds(t, SpawnConfig{Experts: 6, BackgroundCars: 14, Pedestrians: 60})
	for tick := 0; tick < 400; tick++ {
		wi.Step(0.5)
		wb.Step(0.5)
		for i := range wi.Experts {
			a, b := wi.Experts[i], wb.Experts[i]
			if a.S != b.S || a.V != b.V {
				t.Fatalf("tick %d: expert %d diverged: (S=%v V=%v) vs brute (S=%v V=%v)", tick, i, a.S, a.V, b.S, b.V)
			}
		}
		for i := range wi.Background {
			a, b := wi.Background[i], wb.Background[i]
			if a.S != b.S || a.V != b.V {
				t.Fatalf("tick %d: background %d diverged: (S=%v V=%v) vs brute (S=%v V=%v)", tick, i, a.S, a.V, b.S, b.V)
			}
		}
		for i := range wi.Pedestrians {
			a, b := wi.Pedestrians[i], wb.Pedestrians[i]
			if a.Pos != b.Pos {
				t.Fatalf("tick %d: pedestrian %d diverged: %v vs brute %v", tick, i, a.Pos, b.Pos)
			}
		}
	}
}

// TestCollectDatasetSpatialIndexBitIdentical drives the full collection
// pipeline — stepping, index-culled BEV rasterization, waypoint targets —
// on both paths and requires byte-identical samples.
func TestCollectDatasetSpatialIndexBitIdentical(t *testing.T) {
	wi, wb := twinWorlds(t, SpawnConfig{Experts: 4, BackgroundCars: 10, Pedestrians: 40})
	ras := bev.NewRasterizer(bev.DefaultConfig(), wi.Map)
	di := CollectDataset(wi, ras, 4, 120, 0.5)
	db := CollectDataset(wb, ras, 4, 120, 0.5)
	for v := range di {
		si, sb := di[v].Items(), db[v].Items()
		if len(si) != len(sb) {
			t.Fatalf("vehicle %d: %d samples vs brute %d", v, len(si), len(sb))
		}
		for k := range si {
			a, b := si[k].Sample, sb[k].Sample
			if len(a.BEV) != len(b.BEV) {
				t.Fatalf("vehicle %d sample %d: BEV sizes differ", v, k)
			}
			for c := range a.BEV {
				if a.BEV[c] != b.BEV[c] {
					t.Fatalf("vehicle %d sample %d: BEV cell %d = %d, brute %d", v, k, c, a.BEV[c], b.BEV[c])
				}
			}
			if a.Command != b.Command || a.Speed != b.Speed || a.NavDist != b.NavDist || a.RedDist != b.RedDist {
				t.Fatalf("vehicle %d sample %d: scalar inputs diverged: %+v vs %+v", v, k, a, b)
			}
			for c := range a.Targets {
				if a.Targets[c] != b.Targets[c] {
					t.Fatalf("vehicle %d sample %d: target %d = %v, brute %v", v, k, c, a.Targets[c], b.Targets[c])
				}
			}
		}
	}
}

// TestWorldQueriesAfterExternalTeleport pins the InvalidateIndex contract:
// positions mutated outside Step must be visible to queries after an
// invalidation, matching the brute-force path.
func TestWorldQueriesAfterExternalTeleport(t *testing.T) {
	wi, wb := twinWorlds(t, SpawnConfig{Experts: 4, BackgroundCars: 10, Pedestrians: 20})
	wi.Step(0.5) // build + use the index once
	wb.Step(0.5)
	for _, w := range []*World{wi, wb} {
		for _, bg := range w.Background {
			bg.S += 60
			if bg.S > bg.Route.Length() {
				bg.S = bg.Route.Length()
			}
		}
		w.InvalidateIndex()
	}
	probe := wi.Experts[0].Pos()
	for r := 1.0; r <= 4096; r *= 4 {
		if got, want := wi.CollisionAt(probe, wi.Experts[0].ID), wb.CollisionAt(probe, wb.Experts[0].ID); got != want {
			t.Fatalf("CollisionAt after teleport: index %v, brute %v", got, want)
		}
		if got, want := wi.anyCarNear(probe, r), wb.anyCarNear(probe, r); got != want {
			t.Fatalf("anyCarNear(r=%g) after teleport: index %v, brute %v", r, got, want)
		}
	}
}
