// Package rpc defines the length-prefixed wire protocol spoken between the
// edged daemon, its clients and its mesh peers. A frame is a one-byte
// protocol version, a uint32 little-endian body length, then the body: the
// message's fields in struct order, in one binary form (codec.go). Strings
// and byte slices are a uvarint length and the bytes, integers varints,
// float64 values their 8 IEEE bits little-endian; a struct's bools share
// one flags byte, each optional pointer has a presence byte and each slice
// a uvarint count; buffered transactions are packed int32 ids. Every op,
// client and mesh alike, travels in this one layout; a frame with any
// other version byte is refused with *VersionError.
// Connections carry frames through a Conn (one Write per frame, buffered
// reads); Client is the typed request/response surface on top of it.
package rpc

import (
	"errors"
	"fmt"
	"io"
)

// Version is the wire protocol version: the one frame layout this build
// writes and reads. Version 4 replaced the JSON document with the binary
// body. Versions 1 (the JSON document alone behind the header), 2
// (transactions as JSON arrays) and 3 (a JSON document, then the raw
// parameters and packed transactions) are retired; a reader refuses them
// with *VersionError, so a member of an older build is never misread.
const Version = 4

// Version2 names Version for callers written when mesh frames had a
// version of their own.
//
// Deprecated: use Version.
const Version2 = Version

// headerBytes is the framed-message header size: 1 version byte + 4-byte
// little-endian payload length.
const headerBytes = 5

// MaxMessageBytes bounds a single wire message; larger frames are
// rejected to keep a malformed peer from exhausting memory.
const MaxMessageBytes = 1 << 20

// Op names the request operations.
const (
	// OpTransmit runs one message through the semantic pipeline.
	OpTransmit = "transmit"
	// OpMove attaches a user to a radio cell, triggering a handover when
	// the serving member changes.
	OpMove = "move"
	// OpStats returns system counters.
	OpStats = "stats"
	// OpPing checks liveness.
	OpPing = "ping"
)

// Mesh ops, spoken between edged peers; a daemon routes them to its
// mesh.Node (IsMeshOp).
const (
	// OpJoin announces a peer coming online; Request.Peer identifies it.
	OpJoin = "join"
	// OpLeave announces a graceful shutdown; Request.Peer identifies it.
	OpLeave = "leave"
	// OpPeerStats returns the responding node's own NodeStats snapshot.
	OpPeerStats = "peer-stats"
	// OpFetchModel asks a peer whether its cache holds the model named by
	// Request.Fetch, returning the serialized parameters on a hit
	// (cooperative fetch over the mesh).
	OpFetchModel = "fetch-model"
	// OpHandoverPush ships a user's whole record (individual models, the
	// per-user noise sequence, the selection belief and the pending update
	// buffers) to the node taking ownership, or general models alone.
	OpHandoverPush = "handover-push"
)

// IsMeshOp reports whether op is peer-to-peer only.
func IsMeshOp(op string) bool {
	switch op {
	case OpJoin, OpLeave, OpPeerStats, OpFetchModel, OpHandoverPush:
		return true
	}
	return false
}

// Request is a client-to-daemon message.
type Request struct {
	Op   string
	User string
	Text string
	// Cell is the target radio cell for OpMove.
	Cell int
	// DeadlineMs is the client's remaining patience for this call in
	// milliseconds. Zero means no deadline. The daemon sheds the request
	// with an error instead of serving it when admission queueing alone
	// would exceed the deadline.
	DeadlineMs float64

	// Peer identifies the calling node for OpJoin/OpLeave.
	Peer *PeerInfo
	// Fetch names the model wanted by OpFetchModel.
	Fetch *FetchRequest
	// Handoff carries the migrating user state for OpHandoverPush.
	Handoff *HandoffPayload
}

// PeerInfo identifies one mesh member.
type PeerInfo struct {
	// Name is the node name ("node-0", ...); Index its mesh position.
	Name  string
	Index int
	// Addr is the peer's mesh listen address: host:port, or a mem: name
	// for a member in the dialing process (see Listen).
	Addr string
}

// FetchRequest names a model for OpFetchModel. The responder answers from
// its cache with Peek semantics (no eviction-policy or hit-stat
// distortion) and reports a plain miss, never forwarding to origin — the
// caller decides when to pay the uplink.
type FetchRequest struct {
	Domain string
	User   string
	Role   string
}

// ModelPayload is a serialized model shipped between peers: the
// OpFetchModel hit response and each entry of a handover push.
type ModelPayload struct {
	Domain  string
	User    string
	Version int
	// Params is the full parameter payload in nn.ParamSet wire form. It
	// travels raw in the frame; decoded, it is a view of the frame. In a
	// request a Conn served (Conn.ReadRequest) the view is lent: it is
	// valid until that Conn's next Write or read, after which the frame's
	// buffer goes back to the pool and is reused, so a handler parses or
	// copies Params before its response is written. A response
	// (Conn.ReadResponse) and a message read by ReadRequestV or
	// ReadResponseV keep their Params.
	Params []byte
}

// HandoffModel is one individual model inside a handover push, tagged
// with the pipeline side it personalizes.
type HandoffModel struct {
	// Side is "sender" or "receiver".
	Side  string
	Model ModelPayload
}

// Handover-push reasons. The empty reason is a mobility handover (OpMove
// changed the user's serving node); drain and replica pushes reuse the
// same op with an explicit tag so receivers can pin accordingly.
const (
	// HandoffDrain marks a push from a gracefully departing member: the
	// receiver is the new consistent-hash owner and installs shipped
	// general models pinned.
	HandoffDrain = "drain"
	// HandoffReplica marks a proactive hot-model replica push: the
	// receiver installs shipped general models unpinned, as a cache hint.
	HandoffReplica = "replica"
)

// HandoffPayload is the complete user record shipped by OpHandoverPush.
// Every user push — a move or a drain — carries every individual model
// both pipeline sides hold for the user, the per-user channel-noise
// sequence counter, the selection-filter posterior and the buffered
// federated transactions, so the user's stream continues bit-identically
// on the new owner. Drain and replica pushes may instead ship general
// models with User empty.
type HandoffPayload struct {
	User     string
	FromNode string
	NoiseSeq uint64
	Models   []HandoffModel
	// Reason tags the push: "" (mobility), HandoffDrain or HandoffReplica.
	Reason string
	// General carries general (user-independent) models pushed by drain
	// rebalancing or hot-model replication.
	General []ModelPayload
	// Belief is the user's domain-selection posterior (sticky selector).
	Belief []float64
	// Buffers are the user's pending federated-update transactions.
	Buffers []BufferState
}

// BufferState is one (user, domain) federated-update buffer in wire form.
type BufferState struct {
	Domain string
	// Txs travel packed: per transaction its three list lengths, then the
	// ids, every number 4 bytes.
	Txs []TxState
}

// TxState is one buffered transaction: the surface token ids, the concept
// ids the encoder chose, and the decoder's reconstruction. Every id must
// fit in an int32. An empty list decodes as nil.
type TxState struct {
	Surfaces []int
	Concepts []int
	Decoded  []int
}

// Response is a daemon-to-client message.
type Response struct {
	OK    bool
	Error string

	// Shed marks a request rejected by admission control (queue wait
	// exceeded the deadline or the shed threshold) rather than failed.
	Shed bool

	// Draining marks a request refused because the member is gracefully
	// leaving the mesh. The response is only written after the member has
	// handed its state off, so a client that retries against the surviving
	// membership finds the user's state already at the new owner.
	Draining bool

	// Transmit results.
	Restored       string
	SelectedDomain string
	Mismatch       float64
	PayloadBytes   int
	LatencyMs      float64
	CacheHit       bool
	Individual     bool
	UpdateFired    bool

	// Move results.
	Handover *Handover

	// Stats results.
	Stats *Stats

	// Mesh results. Model answers an OpFetchModel hit (nil on miss, with
	// OK still true); Node answers OpPeerStats; Peers lists the
	// responder's current view of the mesh membership for OpJoin.
	Model *ModelPayload
	Node  *NodeStats
	Peers []PeerInfo
}

// Handover reports one OpMove outcome.
type Handover struct {
	// From and To name the old and new serving nodes.
	From string
	To   string
	// Moved is false when the user was already served by the target node.
	Moved bool
	// Models and MigratedBytes count the individual models shipped over
	// the mesh; LatencyMs is the simulated migration transfer time.
	Models        int
	MigratedBytes int64
	LatencyMs     float64
}

// Stats reports daemon counters.
type Stats struct {
	Messages       int
	SenderHitRate  float64
	SyncBytes      int64
	SyncCount      int
	CachedModels   int
	CacheUsedBytes int64
	// UpdateFailures counts individual-model updates that a transmit
	// triggered and that failed; the transmits themselves succeeded.
	UpdateFailures int64
	MemoStats

	// Serve carries the daemon's serve-path metrics: admission state and
	// the latency and queue-wait histograms. Nil when the responder
	// predates the serve path (e.g. a unit-test stub).
	Serve *ServeStats

	// Mesh counters: one NodeStats per member whose snapshot was merged
	// in (a daemon reports itself; a lone daemon is the only entry).
	Nodes         []NodeStats
	Handovers     int64
	MigratedBytes int64
}

// ServeStats nests the serve-path metrics: what the daemon is doing right
// now (in-flight), how fast it has been (latency percentiles) and how long
// admission queueing takes (queue-wait percentiles plus sheds).
type ServeStats struct {
	// InFlight is the number of transmits being served right now.
	InFlight int
	// Latency percentiles of daemon-side transmit service time, in
	// milliseconds, from the daemon's streaming histogram.
	LatencyP50Ms float64
	LatencyP95Ms float64
	LatencyP99Ms float64

	// Queue-wait percentiles measure time spent blocked on the
	// -max-inflight admission gate before service began, in milliseconds.
	QueueWaitP50Ms float64
	QueueWaitP95Ms float64
	QueueWaitP99Ms float64
	// Shed counts requests rejected by admission control.
	Shed int64

	// Update percentiles are the wall time of the individual-model update
	// processes (§II-D) this daemon has completed, in milliseconds — the
	// stall a full buffer adds to its transmit. Zero before the first
	// update.
	UpdateP50Ms float64
	UpdateP99Ms float64
}

// NodeStats reports one mesh member's counters: the answer to
// OpPeerStats, and the member's entry in Stats.Nodes. FetchLatencyMs is
// simulated transfer time, summed.
type NodeStats struct {
	Name           string
	Users          int
	HitRate        float64
	CachedModels   int
	CacheUsedBytes int64
	HandoversIn    int64
	HandoversOut   int64
	NeighborHits   int64
	NeighborBytes  int64
	NeighborServed int64
	OriginFetches  int64
	OriginBytes    int64
	FetchLatencyMs float64

	// Generals lists the domains whose general model this node's sender
	// cache currently holds. Peers use it for coordinated eviction (never
	// evict the mesh's last copy) and to skip redundant drain pushes.
	Generals []string
	// Hot reports per-domain transmit counts, hottest first — the
	// popularity signal replication promotes on, piggybacked on the
	// OpPeerStats probe exchange.
	Hot []DomainHeat
	// ReplicasOut counts general-model replicas this node pushed to its
	// ring-successors; ReplicasIn counts replicas it received.
	ReplicasOut int64
	ReplicasIn  int64
	MemoStats
}

// MemoStats carries the decode-memo counters of a daemon's two edge
// servers, summed (semantic.MemoStats on the wire): feature rows looked
// up, rows that skipped the decoder MLP, entries inserted, and inserts
// that overwrote a live entry. MemoHits/MemoLookups is the hit rate.
type MemoStats struct {
	MemoLookups  uint64
	MemoHits     uint64
	MemoInserts  uint64
	MemoReplaced uint64
}

// HitRate returns MemoHits/MemoLookups, or 0 before any lookup.
func (m MemoStats) HitRate() float64 {
	if m.MemoLookups == 0 {
		return 0
	}
	return float64(m.MemoHits) / float64(m.MemoLookups)
}

// add folds o into m.
func (m *MemoStats) add(o MemoStats) {
	m.MemoLookups += o.MemoLookups
	m.MemoHits += o.MemoHits
	m.MemoInserts += o.MemoInserts
	m.MemoReplaced += o.MemoReplaced
}

// DomainHeat is one entry of NodeStats.Hot.
type DomainHeat struct {
	Domain string
	Count  int64
}

// Merge folds other's counters into s, so the stats scraped from N mesh
// members aggregate to deployment totals: additive counters sum,
// SenderHitRate re-weights by Messages, and Nodes concatenates. Serve percentiles are per-process measurements
// with no meaningful cross-process merge; s keeps its own Serve snapshot
// untouched except for the additive in-flight and shed counters.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	total := s.Messages + other.Messages
	if total > 0 {
		s.SenderHitRate = (s.SenderHitRate*float64(s.Messages) +
			other.SenderHitRate*float64(other.Messages)) / float64(total)
	}
	s.Messages = total
	s.SyncBytes += other.SyncBytes
	s.SyncCount += other.SyncCount
	s.UpdateFailures += other.UpdateFailures
	s.MemoStats.add(other.MemoStats)
	s.CachedModels += other.CachedModels
	s.CacheUsedBytes += other.CacheUsedBytes
	s.Handovers += other.Handovers
	s.MigratedBytes += other.MigratedBytes
	s.Nodes = append(s.Nodes, other.Nodes...)
	if other.Serve != nil {
		if s.Serve == nil {
			s.Serve = &ServeStats{}
		}
		s.Serve.InFlight += other.Serve.InFlight
		s.Serve.Shed += other.Serve.Shed
	}
}

// Print renders one counter snapshot — a single daemon's, or several
// members' merged with Merge — the way semcli -stats and semload's closing
// report show it.
func (s *Stats) Print(w io.Writer) {
	fmt.Fprintf(w, "daemon   : %d messages, hit %.1f%%, %d cached models (%d bytes)\n",
		s.Messages, 100*s.SenderHitRate, s.CachedModels, s.CacheUsedBytes)
	if sv := s.Serve; sv != nil {
		fmt.Fprintf(w, "serve    : in-flight %d, %d shed, service p50 %.2f ms p95 %.2f ms p99 %.2f ms, queue p50 %.2f ms p95 %.2f ms p99 %.2f ms, update p50 %.2f ms p99 %.2f ms\n",
			sv.InFlight, sv.Shed,
			sv.LatencyP50Ms, sv.LatencyP95Ms, sv.LatencyP99Ms,
			sv.QueueWaitP50Ms, sv.QueueWaitP95Ms, sv.QueueWaitP99Ms,
			sv.UpdateP50Ms, sv.UpdateP99Ms)
	}
	fmt.Fprintf(w, "syncs    : %d decoder updates, %d bytes, %d updates failed\n", s.SyncCount, s.SyncBytes, s.UpdateFailures)
	if s.MemoLookups > 0 {
		fmt.Fprintf(w, "memo     : %d feature rows decoded, %.1f%% from the decode memo, %d inserted, %d replaced\n",
			s.MemoLookups, 100*s.MemoStats.HitRate(), s.MemoInserts, s.MemoReplaced)
	}
	var neighborHits int64
	for _, n := range s.Nodes {
		neighborHits += n.NeighborHits
	}
	fmt.Fprintf(w, "mesh     : %d handovers, %d bytes migrated, %d neighbor cache hits\n",
		s.Handovers, s.MigratedBytes, neighborHits)
	for _, n := range s.Nodes {
		fmt.Fprintf(w, "  %-8s: %d users, hit %.1f%%, %d models, handover in/out %d/%d, neighbor hit/served %d/%d, origin %d\n",
			n.Name, n.Users, 100*n.HitRate, n.CachedModels,
			n.HandoversIn, n.HandoversOut, n.NeighborHits, n.NeighborServed, n.OriginFetches)
	}
}

// errFrameTooLarge reports an oversized wire frame.
var errFrameTooLarge = errors.New("rpc: frame exceeds MaxMessageBytes")

// VersionError reports a frame whose version byte is not Version.
type VersionError struct {
	// Got is the version byte received from the peer.
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("rpc: unsupported protocol version %d (want %d)", e.Got, Version)
}

// WriteV encodes v (a *Request or *Response) and writes one frame in a
// single Write. version must be Version. Connections frame through a
// Conn; this form serves plain writers.
func WriteV(w io.Writer, version byte, v interface{}) error {
	if version != Version {
		return &VersionError{Got: version}
	}
	var f frameBuf
	defer f.release()
	frame, err := f.encode(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	return nil
}

// ReadRequestV reads one framed Request and reports its version byte,
// which is always Version. It takes exactly the frame's bytes from r.
func ReadRequestV(r io.Reader) (*Request, byte, error) {
	var f frameBuf
	defer f.release()
	req, err := readMsg[Request](&f, r, false)
	return req, Version, err
}

// ReadResponseV reads one framed Response and reports its version byte,
// which is always Version. It takes exactly the frame's bytes from r.
func ReadResponseV(r io.Reader) (*Response, byte, error) {
	var f frameBuf
	defer f.release()
	resp, err := readMsg[Response](&f, r, false)
	return resp, Version, err
}
