package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"lbchat/internal/faults"
	"lbchat/internal/telemetry"
)

// bruteDueScan is the due-discovery oracle: the O(fleet) scan of every
// vehicle's pre-tick due time that the calendar queue replaced. It returns
// the ids trainTick must step, in ascending order, every vehicle's expected
// nextTrain after the tick — due and departed-while-due vehicles both
// advance past now by whole intervals (a departed vehicle skips its steps),
// the rest keep their schedule — and how many due vehicles were away.
func bruteDueScan(e *Engine, before []float64) (due []int32, after []float64, away int) {
	after = make([]float64, len(before))
	for i, next := range before {
		if next <= e.now {
			if e.VehicleAway(i) {
				away++
			} else {
				due = append(due, int32(i))
			}
		}
		for next <= e.now {
			next += e.Cfg.TrainInterval
		}
		after[i] = next
	}
	return due, after, away
}

// bruteCandidatePairs is the pair-enumeration oracle: CandidatePairs'
// filters applied by the O(F²) double loop over the free vehicles, in
// canonical (A, B) order.
func bruteCandidatePairs(e *Engine, score func(a, b int) float64) []CandidatePair {
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
	for ai := 0; ai < len(free); ai++ {
		for bi := ai + 1; bi < len(free); bi++ {
			a, b := free[ai], free[bi]
			if e.Distance(a, b) > maxRange {
				continue
			}
			if last, ok := e.Vehicles[a].lastChat[b]; ok && now-last < e.Cfg.PairCooldown {
				continue
			}
			if s := score(a, b); s > 0 {
				out = append(out, CandidatePair{A: a, B: b, Score: s})
			}
		}
	}
	return out
}

// bruteContacts is the contact-scan oracle: every in-range pair at now, and
// the open/close events a full pairwise diff against the previous tick's
// open set (key → open time) emits, in (a, b) order.
func bruteContacts(e *Engine, prev map[[2]int]float64) (map[[2]int]float64, []telemetry.Event) {
	maxRange := e.Radio.Params.MaxRangeMeters
	open := make(map[[2]int]float64)
	var events []telemetry.Event
	for a := 0; a < len(e.Vehicles); a++ {
		for b := a + 1; b < len(e.Vehicles); b++ {
			key := [2]int{a, b}
			openedAt, was := prev[key]
			switch in := e.Trace.Distance(a, b, e.now) <= maxRange; {
			case in && was:
				open[key] = openedAt
			case in:
				open[key] = e.now
				events = append(events, telemetry.ContactOpen{Time: e.now, A: a, B: b})
			case was:
				events = append(events, telemetry.ContactClose{Time: e.now, A: a, B: b, Duration: e.now - openedAt})
			}
		}
	}
	return open, events
}

// churn is the heavy churn regime the oracle tests run under.
var churn = faults.Config{ChurnPerHour: 90, AwayMeanSecs: 60}

// oracleScore is a pure pair score for the pair oracle: it draws no
// randomness, so calling it twice leaves the run unchanged, and it is
// positive, so every in-range pair that passes the filters is compared.
func oracleScore(a, b int) float64 { return float64(1 + (a*7+b)%3) }

// contactLog is a sink that keeps the contact events emitted since the
// last take.
type contactLog struct{ events []telemetry.Event }

func (l *contactLog) Emit(ev telemetry.Event) {
	switch ev.(type) {
	case telemetry.ContactOpen, telemetry.ContactClose:
		l.events = append(l.events, ev)
	}
}

func (l *contactLog) Close() error { return nil }

func (l *contactLog) take() []telemetry.Event {
	evs := l.events
	l.events = nil
	return evs
}

// oracleProtocol decorates a Protocol with the engine's per-tick oracles.
// At every OnTick — after the tick's contact scan and train phase, before
// the wrapped protocol acts — it checks:
//   - due discovery: e.dueIDs and every vehicle's nextTrain equal
//     bruteDueScan over the previous tick's nextTrain snapshot;
//   - pair enumeration: CandidatePairs equals bruteCandidatePairs under
//     oracleScore;
//   - contact scanning: contactOpen equals the brute in-range set with its
//     open times, and the tick's contact events, as the engine's sink
//     contactLog saw them, equal the brute diff's, in order.
//
// It counts what it saw so tests can assert the checks had work to do:
// ticks with a due vehicle, due vehicles found away, ticks with candidate
// pairs, and contact events.
type oracleProtocol struct {
	Protocol
	t        *testing.T
	contacts *contactLog

	nextTrain []float64
	open      map[[2]int]float64

	ticks, dueTicks, awayDue, pairTicks, contactEvents int
}

func (o *oracleProtocol) Setup(e *Engine) error {
	if err := o.Protocol.Setup(e); err != nil {
		return err
	}
	o.snapshot(e)
	return nil
}

func (o *oracleProtocol) OnTick(e *Engine, now float64) {
	o.ticks++
	wantDue, wantNext, away := bruteDueScan(e, o.nextTrain)
	if !slices.Equal(e.dueIDs, wantDue) {
		o.t.Fatalf("t=%g: due set %v, oracle %v", now, e.dueIDs, wantDue)
	}
	for i, v := range e.Vehicles {
		if v.nextTrain != wantNext[i] {
			o.t.Fatalf("t=%g: vehicle %d nextTrain %v, oracle %v", now, i, v.nextTrain, wantNext[i])
		}
	}
	if len(wantDue) > 0 {
		o.dueTicks++
	}
	o.awayDue += away

	wantPairs := bruteCandidatePairs(e, oracleScore)
	if got := e.CandidatePairs(oracleScore); !slices.Equal(got, wantPairs) {
		o.t.Fatalf("t=%g: candidate pairs %v, oracle %v", now, got, wantPairs)
	}
	if len(wantPairs) > 0 {
		o.pairTicks++
	}

	wantOpen, wantEvents := bruteContacts(e, o.open)
	if !maps.Equal(e.contactOpen, wantOpen) {
		o.t.Fatalf("t=%g: open contacts %v, oracle %v", now, e.contactOpen, wantOpen)
	}
	got := o.contacts.take()
	if !slices.Equal(got, wantEvents) {
		o.t.Fatalf("t=%g: contact events %v, oracle %v", now, got, wantEvents)
	}
	o.contactEvents += len(got)
	o.open = wantOpen

	o.Protocol.OnTick(e, now)
	o.snapshot(e)
}

// snapshot records every vehicle's nextTrain, the due oracle's input for
// the next tick.
func (o *oracleProtocol) snapshot(e *Engine) {
	o.nextTrain = o.nextTrain[:0]
	for _, v := range e.Vehicles {
		o.nextTrain = append(o.nextTrain, v.nextTrain)
	}
}

// runOracle runs LbChat for duration seconds on a tinyEnvWith engine under
// the oracles, with the contact log as the telemetry sink (so the contact
// scan runs), and fails unless every oracle had work on some tick.
func runOracle(t *testing.T, vehicles int, duration float64, mutate func(*Config)) (*Engine, *oracleProtocol) {
	t.Helper()
	log := &contactLog{}
	eng, _ := tinyEnvWith(t, vehicles, true, func(c *Config) {
		c.Telemetry = log
		if mutate != nil {
			mutate(c)
		}
	})
	o := &oracleProtocol{Protocol: NewLbChat(), t: t, contacts: log}
	if err := eng.Run(o, duration); err != nil {
		t.Fatal(err)
	}
	if o.dueTicks == 0 || o.pairTicks == 0 || o.contactEvents == 0 {
		t.Fatalf("oracles idle over %d ticks: %d due ticks, %d pair ticks, %d contact events",
			o.ticks, o.dueTicks, o.pairTicks, o.contactEvents)
	}
	return eng, o
}

// TestCalendarDueMatchesLegacyScan checks the calendar queue against the
// legacy per-tick fleet scan on every tick of a fault-free run: the same
// due vehicles, in the same ascending order, with the same schedules
// afterwards. The pair and contact oracles ride along.
func TestCalendarDueMatchesLegacyScan(t *testing.T) {
	runOracle(t, 3, 300, nil)
}

// TestChurnRequeuesCalendarEntries proves departed vehicles are moved
// forward on the wheel, not skipped forever and not stranded: under heavy
// churn the due oracle holds on every tick (a departed vehicle's schedule
// advances exactly as the fleet scan's would), at least one vehicle
// actually departed while due, and at the end of the run every vehicle
// holds exactly one live future entry on the wheel.
func TestChurnRequeuesCalendarEntries(t *testing.T) {
	eng, o := runOracle(t, 3, 300, func(c *Config) { c.Faults = churn })
	if o.awayDue == 0 {
		t.Fatal("no vehicle came due while departed; the re-queue path was not exercised")
	}
	if got, want := eng.calendar.Len(), len(eng.Vehicles); got != want {
		t.Fatalf("wheel holds %d scheduled vehicles after the run, want %d (one live entry each)", got, want)
	}
	for _, v := range eng.Vehicles {
		tick, ok := eng.calendar.Scheduled(int32(v.ID))
		if !ok {
			t.Fatalf("vehicle %d fell off the wheel", v.ID)
		}
		if tick < eng.tickIndex {
			t.Fatalf("vehicle %d scheduled at past tick %d (cursor %d): stranded behind the cursor",
				v.ID, tick, eng.tickIndex)
		}
	}
}

// TestEngineOraclesAcrossShardsWorkers runs the due, pair and contact
// oracles at every shards × workers combination the engine promises to be
// byte-identical at, with and without churn: the sharded scanner and the
// shard-major batcher must pick exactly the fleet scan's due set and the
// double loop's pairs and contacts on every tick.
func TestEngineOraclesAcrossShardsWorkers(t *testing.T) {
	for _, withChurn := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("churn=%v/shards=%d/workers=%d", withChurn, shards, workers), func(t *testing.T) {
					runOracle(t, 5, 200, func(c *Config) {
						c.Shards = shards
						c.Workers = workers
						if withChurn {
							c.Faults = churn
						}
					})
				})
			}
		}
	}
}
