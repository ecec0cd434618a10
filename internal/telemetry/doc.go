// Package telemetry is the structured observability layer of the LbChat
// stack: typed events emitted from the protocol hot paths (chats, transfers,
// coreset maintenance, training steps), aggregated into counters and
// fixed-bucket histograms, and delivered to pluggable sinks (in-memory for
// tests and summaries, JSONL for offline analysis, CSV for metric dumps).
//
// Design rules, in order of importance:
//
//  1. A nil sink costs ~zero: every emission site guards with a nil check
//     before constructing the event, so a run with telemetry disabled is
//     bit-identical to — and essentially as fast as — a run predating the
//     telemetry layer.
//  2. Events carry VIRTUAL time (engine seconds / tick indices), never wall
//     clock, and are emitted in deterministic order (parallel phases buffer
//     per-vehicle results and emit in vehicle-index order). The event stream
//     of a run is therefore bit-identical at every worker count. Wall-clock
//     measurements and engine internals (shard, scheduler, coreset-cache
//     and trace-window statistics) exist only as Summary aggregates behind
//     the separate Metrics side channel, which the JSONL sink deliberately
//     does not implement.
//  3. Telemetry never consumes simulation randomness and never feeds values
//     back into the simulation.
//
// Event kinds and metric names are an append-only wire format: JSONL streams
// written by older builds must keep decoding, so new behaviour (like the
// fault-injection and resilience events fault_injected, chat_resumed, and
// partial_salvage — see internal/faults and DESIGN.md §9) adds kinds rather
// than changing existing ones.
package telemetry
