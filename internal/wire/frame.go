// Package wire defines the binary message format spoken between
// Communication Backbones (CBs) on the COD cluster.
//
// The message kinds mirror the protocol of the paper (§2.3): a subscriber's
// CB broadcasts SUBSCRIPTION until it receives ACKNOWLEDGE, then sends
// CHANNEL CONNECTION to build the virtual channel, confirmed by a second
// ACKNOWLEDGE. After that, publishers push UPDATE ATTRIBUTE VALUE frames and
// subscribers receive them as REFLECT ATTRIBUTE VALUE. Additional kinds carry
// liveness (HEARTBEAT, which also ferries flow-control credit grants for
// reliable channels as control attributes), the display frame barrier
// (FRAME READY / FRAME SWAP), orderly departure (BYE), and a publisher's
// solicit for SUBSCRIPTION re-broadcasts (PUBLICATION, datagram only).
//
// All multi-byte integers are big-endian; strings and byte blobs are
// uvarint-length-prefixed. A frame on a stream transport is preceded by a
// uint32 payload length.
//
// # The ownership rule
//
// An AttrSet has one form, its encoded attribute section, so attribute
// bytes are copied only where they change owner, and each of those places
// is one copy:
//
//   - Sending. Frame.AppendEncode copies the set into the caller's buffer
//     (for a set built in ascending ID order, its count and one append of
//     the arena). The cb layer does that, or, for a subscriber in the
//     same process, CloneInto storage an earlier reflection handed back,
//     before Update returns: the set is the publisher's again the moment
//     the call comes back, which is why a cod.Pub, and every fom
//     publisher of the simulator, can encode every update into one
//     scratch set.
//   - Decoding a buffer (Decoder.DecodeInto). The frame's Attrs
//     borrow the buffer: its values are the buffer's own bytes, good for
//     as long as the caller leaves the buffer alone; Clone keeps them
//     longer. The buffer is never written — a Put into a borrowed set
//     copies it out first, and FillLayout gives it fresh storage.
//   - Decoding a stream (Decoder.DecodeFrom, ReadFrame). The frame owns
//     the storage its body was read into, so moving its Attrs out moves
//     the storage with them, and the frame reads its next body into
//     whatever AttrSet it is left holding. That is how a reflection owns
//     the frame it arrived in: cb's read loop moves an UPDATE's Attrs
//     into the cb.Reflection, uncopied, and leaves its frame a set some
//     consumer of the same link handed back with Reflection.Release, or
//     the zero value, which allocates storage sized to the frame that is
//     read into it.
//
// A section no encoder in this tree would write — IDs repeated or not
// ascending, a padded length — is not indexed where it lies but copied
// out record by record (last value wins, the set re-encodes ascending),
// into storage the set owns, whichever way it was decoded.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants.
const (
	// Magic opens every frame so misdirected traffic fails fast.
	Magic uint16 = 0xCB15
	// Version is the protocol version byte.
	Version byte = 1
	// MaxFrameSize bounds a single frame (header + payload) to keep a
	// malformed or hostile peer from forcing huge allocations.
	MaxFrameSize = 1 << 20
)

// Kind identifies the message type of a frame.
type Kind uint8

// Frame kinds. Values start at 1 so the zero Kind is invalid.
const (
	KindSubscription Kind = iota + 1 // subscriber CB broadcast (§2.3)
	KindAcknowledge                  // publisher CB acknowledgement
	KindChannelConn                  // subscriber → publisher channel build
	KindUpdateAttrs                  // publisher LP → CB data push
	KindReflectAttrs                 // CB → subscriber LP data delivery
	KindHeartbeat                    // node liveness beacon
	kindReserved                     // 7, once NULL (time only): never reused, refused like an unknown kind
	KindFrameReady                   // display node → sync server
	KindFrameSwap                    // sync server → display nodes
	KindBye                          // orderly leave announcement
	KindPublication                  // publisher CB broadcast: solicits SUBSCRIPTION (datagram only)

	kindMax // sentinel, keep last
)

// NOTE: credit grants deliberately do NOT get their own frame kind. A
// legacy decoder rejects unknown kinds and its read loop treats that as
// a dead link, so introducing a new kind would let one reliable
// subscriber churn every channel it shares with a pre-policy peer.
// Credits ride HEARTBEAT frames as AttrCreditCounts instead — a frame
// every build accepts, attrs ignored by old ones.
//
// KindPublication is safe for the opposite reason: it is never written to
// a link. It travels only as a broadcast datagram, and a build without it
// fails to decode the datagram and drops it — one datagram, no link, no
// state — then finds the publisher at its own next re-broadcast, as it
// always did.

var kindNames = map[Kind]string{
	KindSubscription: "SUBSCRIPTION",
	KindAcknowledge:  "ACKNOWLEDGE",
	KindChannelConn:  "CHANNEL_CONNECTION",
	KindUpdateAttrs:  "UPDATE_ATTRIBUTE_VALUE",
	KindReflectAttrs: "REFLECT_ATTRIBUTE_VALUE",
	KindHeartbeat:    "HEARTBEAT",
	KindFrameReady:   "FRAME_READY",
	KindFrameSwap:    "FRAME_SWAP",
	KindBye:          "BYE",
	KindPublication:  "PUBLICATION",
}

// String returns the HLA-style service name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined message kind.
func (k Kind) Valid() bool { return k >= KindSubscription && k < kindMax && k != kindReserved }

// Ack phases carried in Frame.Phase for KindAcknowledge.
const (
	// AckSubscription acknowledges a SUBSCRIPTION broadcast: "I publish
	// this class, connect to me".
	AckSubscription uint8 = 1
	// AckChannelUp confirms a CHANNEL CONNECTION: the virtual channel is
	// established and data will flow.
	AckChannelUp uint8 = 2
)

// Policy selects a virtual channel's delivery contract. The subscriber
// declares it in the CHANNEL CONNECTION frame (AttrDeliveryPolicy); a
// handshake carrying no policy attribute — every pre-policy peer — decodes
// as PolicyDropOldest, so old recordings and mixed-version federations
// keep today's semantics.
type Policy uint8

// Delivery policies.
const (
	// PolicyDropOldest is the legacy contract: a full subscriber mailbox
	// silently drops its oldest reflection.
	PolicyDropOldest Policy = iota
	// PolicyLatestValue conflates: a full mailbox coalesces to the newest
	// reflection per channel — the right semantics for periodic state
	// where the consumer only ever wants the latest sample.
	PolicyLatestValue
	// PolicyReliable is credit-windowed: the publisher may have at most
	// the channel's window of unconsumed updates in flight; past that the
	// send blocks or fails instead of anything being dropped.
	PolicyReliable

	policyMax // sentinel, keep last
)

var policyNames = map[Policy]string{
	PolicyDropOldest:  "drop-oldest",
	PolicyLatestValue: "latest-value",
	PolicyReliable:    "reliable",
}

// String returns the lowercase policy name.
func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Valid reports whether p is a defined delivery policy.
func (p Policy) Valid() bool { return p < policyMax }

// Protocol attribute IDs carried on control frames. UPDATE/REFLECT frames
// use the object model's own attribute IDs; these apply only to CHANNEL
// CONNECTION and HEARTBEAT frames, whose attribute sets were always empty
// before — legacy peers decode and ignore them.
const (
	// AttrDeliveryPolicy (uint32) on CHANNEL CONNECTION: the subscriber's
	// requested Policy. Absent means PolicyDropOldest.
	AttrDeliveryPolicy AttrID = 1
	// AttrCreditWindow (uint32) on CHANNEL CONNECTION: the send window of
	// a PolicyReliable channel.
	AttrCreditWindow AttrID = 2
	// AttrCreditCounts ([]int64, [channel, consumed] pairs) on HEARTBEAT:
	// cumulative consumption counts for reliable channels riding the
	// link. Immediate grants are heartbeats carrying just the granted
	// channel; the periodic beacon repeats every channel's count, so a
	// lost grant never wedges a publisher for longer than one beat.
	AttrCreditCounts AttrID = 3
)

// Frame is the unit of exchange between CBs. A single struct covers every
// kind; unused fields stay at their zero values and cost one byte each on
// the wire.
type Frame struct {
	Kind    Kind
	Phase   uint8   // ACK phase (AckSubscription / AckChannelUp)
	Channel uint32  // virtual-channel ID; 0 = not channel-scoped
	Seq     uint32  // per-channel sequence number
	Time    float64 // simulation time for UPDATE; frame index for barrier frames
	Node    string  // origin node name
	LP      string  // origin logical-process name
	Class   string  // object-class name
	Addr    string  // dialable address (CHANNEL CONNECTION, ACKNOWLEDGE)
	Attrs   AttrSet // attribute values (UPDATE/REFLECT)
}

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadKind    = errors.New("wire: invalid message kind")
	ErrTooLarge   = errors.New("wire: frame exceeds MaxFrameSize")
	ErrTruncated  = errors.New("wire: truncated frame")
)

// Encode serializes the frame to a fresh byte slice.
func (f Frame) Encode() ([]byte, error) {
	return f.AppendEncode(make([]byte, 0, 64+f.Attrs.encodedSize()))
}

// AppendEncode serializes the frame onto buf and returns the extended
// slice. The frame itself (not buf's prior contents) is held to
// MaxFrameSize. This is the zero-alloc path: callers hand in a buffer
// they own and reuse it across frames.
func (f Frame) AppendEncode(buf []byte) ([]byte, error) {
	if !f.Kind.Valid() {
		return buf, ErrBadKind
	}
	start := len(buf)
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = byte(f.Kind)
	buf = append(buf, hdr[:]...)
	buf = append(buf, f.Phase)
	buf = binary.BigEndian.AppendUint32(buf, f.Channel)
	buf = binary.BigEndian.AppendUint32(buf, f.Seq)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f.Time))
	buf = appendString(buf, f.Node)
	buf = appendString(buf, f.LP)
	buf = appendString(buf, f.Class)
	buf = appendString(buf, f.Addr)
	buf = f.Attrs.append(buf)
	if len(buf)-start > MaxFrameSize {
		return buf, ErrTooLarge
	}
	return buf, nil
}

// Channel and Seq sit at fixed offsets behind the 4-byte header and the
// phase byte, ahead of every variable-length field.
const (
	channelOffset = 5
	seqOffset     = 9
)

// SetChannelSeq overwrites the Channel and Seq fields of an encoded frame
// in place. A publisher fanning one update out to several virtual
// channels encodes it once and stamps each copy, since nothing else in
// the frame differs between them.
func SetChannelSeq(encoded []byte, channel, seq uint32) {
	binary.BigEndian.PutUint32(encoded[channelOffset:], channel)
	binary.BigEndian.PutUint32(encoded[seqOffset:], seq)
}

// Decoder decodes frames with reusable state: a bounded string-intern
// table that collapses the Node/LP/Class/Addr strings repeated on every
// frame of a link into single allocations. One Decoder serves one
// goroutine (each cb read loop owns its own). The decoded Frame's strings
// are immutable and safe to retain; who owns the bytes its Attrs sit in is
// the package doc's ownership rule.
type Decoder struct {
	pfx    [4]byte // DecodeFrom's length prefix: a local would escape through io.Reader
	intern map[string]string
}

// Intern-table bounds: names longer than maxInternLen are not worth
// caching, and a hostile peer cycling names can pin at most
// maxInternEntries of them.
const (
	maxInternLen     = 64
	maxInternEntries = 4096
)

// NewDecoder returns a Decoder ready for ReadFrom/DecodeInto.
func NewDecoder() *Decoder {
	return &Decoder{intern: make(map[string]string)}
}

// str materializes b as a string, deduplicating via the intern table.
// The m[string(b)] lookup compiles to a no-allocation map probe.
func (d *Decoder) str(b []byte) string {
	if d == nil || d.intern == nil || len(b) == 0 || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.intern) < maxInternEntries {
		d.intern[s] = s
	}
	return s
}

// DecodeInto parses one encoded frame from b into f, reusing f's ref table
// and, for a frame reused from the last call, its header strings. b must
// contain exactly one frame, and f.Attrs may be left borrowing it (see the
// package doc). A nil receiver is valid (no interning).
func (d *Decoder) DecodeInto(b []byte, f *Frame) error {
	if len(b) > MaxFrameSize {
		return ErrTooLarge
	}
	if len(b) < 21 { // header(4)+phase(1)+channel(4)+seq(4)+time(8)
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return ErrBadMagic
	}
	if b[2] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	f.Kind = Kind(b[3])
	if !f.Kind.Valid() {
		return fmt.Errorf("%w: %d", ErrBadKind, b[3])
	}
	f.Phase = b[4]
	f.Channel = binary.BigEndian.Uint32(b[5:9])
	f.Seq = binary.BigEndian.Uint32(b[9:13])
	f.Time = math.Float64frombits(binary.BigEndian.Uint64(b[13:21]))
	at := 21

	var err error
	if f.Node, at, err = d.readString(b, at, f.Node); err != nil {
		return fmt.Errorf("wire: node: %w", err)
	}
	if f.LP, at, err = d.readString(b, at, f.LP); err != nil {
		return fmt.Errorf("wire: lp: %w", err)
	}
	if f.Class, at, err = d.readString(b, at, f.Class); err != nil {
		return fmt.Errorf("wire: class: %w", err)
	}
	if f.Addr, at, err = d.readString(b, at, f.Addr); err != nil {
		return fmt.Errorf("wire: addr: %w", err)
	}
	if at, err = readAttrSetInto(&f.Attrs, b, at); err != nil {
		return fmt.Errorf("wire: attrs: %w", err)
	}
	if at != len(b) {
		return fmt.Errorf("wire: %d trailing bytes", len(b)-at)
	}
	return nil
}

// DecodeFrom reads one length-prefixed frame from r (stream framing) into
// f. The body is read into f.Attrs' own storage — allocated to the frame's
// size when what is there is too small — and decoded where it lies, so f
// owns every byte its Attrs refer to: moving f.Attrs elsewhere hands the
// frame's storage over with it, and whatever AttrSet takes its place (the
// zero value, or one handed back) is what the next frame is read into.
func (d *Decoder) DecodeFrom(r io.Reader, f *Frame) error {
	if _, err := io.ReadFull(r, d.pfx[:]); err != nil {
		// Propagate io.EOF untouched so callers can detect orderly close.
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(d.pfx[:])
	if n > MaxFrameSize {
		return ErrTooLarge
	}
	body := f.Attrs.detach(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("wire: read body: %w", err)
	}
	err := d.DecodeInto(body, f)
	f.Attrs.adopt(body)
	return err
}

// WriteTo writes the frame to w with a uint32 length prefix, the stream
// (TCP) framing. It returns the total bytes written.
func (f Frame) WriteTo(w io.Writer) (int64, error) {
	body, err := f.Encode()
	if err != nil {
		return 0, err
	}
	var pfx [4]byte
	binary.BigEndian.PutUint32(pfx[:], uint32(len(body)))
	n1, err := w.Write(pfx[:])
	if err != nil {
		return int64(n1), fmt.Errorf("wire: write length: %w", err)
	}
	n2, err := w.Write(body)
	if err != nil {
		return int64(n1 + n2), fmt.Errorf("wire: write body: %w", err)
	}
	return int64(n1 + n2), nil
}

// ReadFrame reads one length-prefixed frame from r (stream framing).
func ReadFrame(r io.Reader) (Frame, error) {
	var f Frame
	err := (&Decoder{}).DecodeFrom(r, &f)
	return f, err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString reads the length-prefixed string at b[at:]. prev is what the
// field held in the frame decoded before this one: on a link it is nearly
// always the same name again, and comparing costs less than the intern
// table's hash.
func (d *Decoder) readString(b []byte, at int, prev string) (string, int, error) {
	n, sz := binary.Uvarint(b[at:])
	if sz <= 0 {
		return "", 0, ErrTruncated
	}
	at += sz
	if uint64(len(b)-at) < n {
		return "", 0, ErrTruncated
	}
	end := at + int(n)
	if string(b[at:end]) == prev {
		return prev, end, nil
	}
	return d.str(b[at:end]), end, nil
}
