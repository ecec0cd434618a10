package world

import (
	"fmt"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/simrand"
)

// benchWorld spawns a world with n cars (half experts, half background)
// and n pedestrians on the default map.
func benchWorld(b *testing.B, n int, disableIndex bool) *World {
	b.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	w, err := New(m, SpawnConfig{Experts: n / 2, BackgroundCars: n - n/2, Pedestrians: n}, simrand.New(uint64(n)))
	if err != nil {
		b.Fatalf("world.New: %v", err)
	}
	w.bruteScan = disableIndex
	return w
}

// BenchmarkWorldTick measures one full world step — every car's driving
// cone, pedestrian, intersection, and yielding queries plus every walker's
// road-entry check — with the spatial index against the pre-index entity
// scans, at scaled populations.
func BenchmarkWorldTick(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		for _, path := range []struct {
			name    string
			disable bool
		}{{"index", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, path.name), func(b *testing.B) {
				w := benchWorld(b, n, path.disable)
				w.Step(0.5) // warm: spawn settling + first index build
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Step(0.5)
				}
			})
		}
	}
}

// BenchmarkBEV measures one BEV rasterization including the entity
// gathering that feeds it: ego-window culling through the spatial index
// against the full-fleet position copy of the brute path. The tensor is
// byte-identical either way (Rasterize applies the exact window test per
// entity); only the work to get there differs.
func BenchmarkBEV(b *testing.B) {
	cfg := bev.DefaultConfig()
	for _, n := range []int{16, 64, 256} {
		for _, path := range []struct {
			name    string
			disable bool
		}{{"index", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, path.name), func(b *testing.B) {
				w := benchWorld(b, n, path.disable)
				ras := bev.NewRasterizer(cfg, w.Map)
				w.Step(0.5)
				ego := w.Experts[0]
				frame := ego.Frame()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ras.Rasterize(frame,
						w.VehiclePositionsNearSeenBy(frame.Origin, cfg.VehicleCullRadius(), ego.ID, nil),
						w.PedestrianPositionsNear(frame.Origin, cfg.PedestrianCullRadius()))
				}
			})
		}
	}
}
