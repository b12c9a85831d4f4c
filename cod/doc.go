// Package cod is the public SDK of the codsim simulator runtime: a typed
// publish/subscribe façade over the Communication Backbone, the paper's
// transparent communication layer for a Cluster Of Desktop computers
// (Huang, Bai, Tai, Gau — ICDCS 2001, §2). It is the one supported way to
// build COD federations; the internal/ packages are implementation.
//
// A module joins the cluster by creating a Node, then registering its
// logical processes as typed publishers or subscribers of object classes:
//
//	type CraneState struct {
//		X, Y, Slew float64
//	}
//
//	fed := cod.NewFederation()
//	defer fed.Close()
//
//	dyn, _ := fed.Node("dynamics-pc")
//	vis, _ := fed.Node("display-pc")
//
//	pub, _ := cod.Publish[CraneState](dyn, "dynamics", "CraneState")
//	sub, _ := cod.Subscribe[CraneState](vis, "visual", "CraneState")
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	_ = sub.WaitMatched(ctx) // discovery: SUBSCRIPTION broadcast → channel
//
//	_ = pub.Update(0.1, CraneState{X: 1, Slew: 0.2})
//	r, _ := sub.Next(ctx)    // r.Value is a CraneState again
//
// Nodes on one in-memory LAN model the paper's Ethernet segment; WithUDP
// runs the same protocol over real sockets for multi-process clusters
// (cmd/codbatch -serve and -coordinator run one). Discovery,
// virtual-channel construction, heartbeats and dynamic join all happen
// inside the backbone — callers never see a socket, which is the
// transparency the paper claims for the CB.
//
// # Codec contract
//
// Publish[T] and Subscribe[T] map the struct T to the backbone's
// attribute sets positionally: the i-th exported, un-tagged field gets
// attribute ID i+1. Publisher and subscriber interoperate exactly when
// they declare the same field sequence. Supported kinds: bool, int/uint
// of any size, float32/float64, string, []byte, []float64, []int64,
// []string. Tag a field `cod:"-"` to exclude it. Unsupported kinds are
// rejected by Publish/Subscribe, and a reflection missing a declared
// attribute is rejected by Next/Poll/Latest — shape mismatches surface as
// errors, never as silently zeroed fields.
//
// The codec is reflection-free on the hot path. Publish/Subscribe walk T
// once with the reflect package and record, per field, its attribute ID,
// kind and byte offset; Update and Next then move every field — scalars,
// strings and slices alike — through typed unsafe loads and stores at
// those offsets: no reflect.Value, no per-field interface boxing, and
// nothing that forces the caller's value onto the heap. T's leading run of
// fixed-size fields (bool, integers, floats) is laid out on the wire once
// too, as an internal/wire Layout (its doc has the contract): Update copies
// those records whole and stores each value at its fixed offset, and Next
// loads them from those offsets whenever a reflection opens with the same
// records, reading anything else by attribute ID. All type validation
// stays at Publish/Subscribe time, so the fast path never trades away the
// fail-fast contract above.
//
// Buffers are recycled at both ends. Each Pub encodes into one scratch
// set of its own, reused by its next update — safe because the backbone
// serializes or clones before returning. On the other side Next, Poll and Latest decode
// a reflection into T (strings and slices are copied out) and then hand
// its attribute storage back to the backbone for the next update off the
// link, so a steady typed publish→reflect allocates nothing beyond what
// T's own strings and slices need.
//
// # Blocking and errors
//
// Every blocking call takes a context: Sub.Next, Sub.WaitMatched,
// Pub.WaitChannels. Cancellation returns ctx.Err(); an update racing a
// cancellation is still delivered. Pub.Update reports ErrNoSubscribers
// when it routed to zero channels, which fire-and-forget publishers
// ignore with errors.Is.
//
// The waits sleep on the backbone's own edges, not on a poll: a join is
// one round trip whichever side arrives first (internal/cb's package doc
// has the protocol). Pub.NotifyC is the same edge for a select loop — a
// token whenever the class's channel set changes, as Sub.NotifyC is for
// the mailbox — so a publisher that must be heard says its piece when a
// subscriber joins instead of repeating it on a timer:
//
//	select {
//	case <-pub.NotifyC():
//		if pub.Channels() > 0 {
//			_ = pub.Update(now, current) // a subscriber just joined
//		}
//	case <-ctx.Done():
//	}
//
// # Delivery ordering
//
// On any single virtual channel — one publisher node to one subscriber
// LP — updates are delivered in publish (sequence) order, even when
// Update is called from several goroutines concurrently. No ordering is
// promised across channels, across different publishers of a class, or
// between classes.
//
// # Delivery policies
//
// Every subscription declares what saturation does, as one of two
// policies. The subscriber states its policy in the channel handshake;
// the publisher's backbone enforces it:
//
//   - LatestValue (the SDK default): a full mailbox coalesces to the
//     newest reflection per virtual channel, counted as conflations.
//     The contract for periodic state — a stalled consumer costs bounded
//     memory and resumes on the freshest sample from every publisher.
//     The simulator's CraneState, MotionCue, ScenarioState and
//     ControlInput channels run this way.
//   - Reliable(window): nothing is dropped. Each publisher may have at
//     most window unconsumed updates in flight to the subscriber; past
//     that Update reports ErrWindowFull and UpdateContext blocks until
//     the subscriber consumes (credits flow back as its mailbox drains,
//     carried on link heartbeats — a frame legacy builds accept — so a
//     lost grant costs one beat at most). Saturation propagates to the
//     producer instead of the kernel's socket buffer. Instructor
//     commands and the whole dist dispatch protocol (jobs, claims,
//     grants, results, acks) run this way; dist heartbeats stay
//     LatestValue — newest beat per worker.
//
// The backbone (internal/cb) has a third policy, drop-oldest: a full
// mailbox silently drops its oldest reflection. The simulator's frame
// barrier and audio events use it there on purpose. Legacy rule: a
// handshake carrying no policy attribute (every pre-policy peer) yields
// drop-oldest on both sides, so old recordings and mixed-version
// federations keep their original semantics — the same convention as
// the absent-CraneID rule below. Node.Tables exposes per-channel drop and
// conflation counts, so a lossy channel is named rather than inferred
// from backbone totals.
//
// # Multiple publishers per class
//
// Several LPs may publish the same object class — the simulator's
// multi-crane federation runs one dynamics publisher per carrier on the
// CraneState class. Subscribers receive the interleaved stream and tell
// the instances apart by a discriminating attribute; the simulator's FOM
// uses CraneID, with the legacy rule that an absent CraneID decodes as
// crane 0 so single-publisher peers and old recordings stay valid. When
// consuming such a class, prefer a queued subscription (WithQueue) folded
// into a newest-per-key view over conflation, which would keep only the
// newest reflection across all publishers.
//
// The SDK carries application traffic beyond the simulator's FOM: the
// distributed batch layer (internal/dist, cmd/codbatch) runs its whole
// coordinator/worker protocol — job announces, claims, grants, results,
// result acks and worker heartbeats, as the dist.Job, dist.Claim,
// dist.Grant, dist.Result, dist.Ack and dist.Heartbeat classes — over
// these same typed channels.
//
// # Observability
//
// Node.Stats and Node.Tables are the SDK's telemetry surface: process
// counters plus the live pub/sub tables with per-channel delivered,
// dropped and conflated tallies (Stats, TableEntry, ChannelTally). The
// telemetry plane (internal/obs, enabled with -obs on cmd/codbatch)
// scrapes exactly this surface into Prometheus series —
// it never reaches into the backbone internals, so anything visible at
// /metrics is equally available to SDK callers here.
package cod
