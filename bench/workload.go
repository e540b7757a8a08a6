package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/mat"
)

// systemSeed is the daemon's -seed, the semkb pretraining seed and the
// mesh ring seed. The benchmark's own -seed only drives the traffic.
const systemSeed = 11

// idiolectSeed + u seeds user u's idiolect.
const idiolectSeed = 0x1d10

// ringReplicas is the virtual-point count every mesh member uses.
const ringReplicas = 64

// nominalRepSeconds is the measured time one repetition is sized for at
// scale 1.0; -seconds rescales the request counts uniformly.
const nominalRepSeconds = 5.0

// workload is one traffic mix plus the daemon shape it runs against. The
// request counts are fixed (not timed) so that every count-based metric,
// and on roam the response digest, is a pure function of the seed.
type workload struct {
	name string
	why  string

	// members is the number of edged processes (1, or a mesh of 2).
	members int
	// daemonArgs are flags beyond -addr/-kb/-seed; empty means defaults.
	daemonArgs []string

	// conns is the number of concurrent closed-loop connections; serial
	// workloads (roam) issue one stream routed over one connection per
	// member instead.
	conns  int
	serial bool
	// usersPerConn users belong to each connection (serial: in total).
	usersPerConn int
	// zipfUsers picks the next user Zipf(1.0) instead of round-robin.
	zipfUsers bool
	// minLen/maxLen bound message length in tokens.
	minLen, maxLen int
	// idiolect is the corpus.NewIdiolect strength per user; 0 = none, and
	// messages then draw uniformly from all 8 domains. With an idiolect a
	// user talks only about their 2 home domains (3u+{0,1}) mod 8. A user's
	// idiolect is part of the workload, like their home domains: it is
	// drawn from the user's index, not from the traffic seed, so that
	// sem_accuracy does not swing with which synonyms a seed happened to
	// hand out.
	idiolect float64
	// moveProb is the chance of a cell move before a transmit.
	moveProb float64
	cells    int

	// warmup and measured are request counts per repetition at scale 1.0.
	warmup, measured int
	// accFloor is the sem_accuracy correctness floor.
	accFloor float64
	// replayCap bounds the in-process stage replay of the traced run.
	replayCap int
}

// workloads lists the four traffic mixes in round-robin order. The "why"
// lines are the ones BENCHMARK.json carries.
var workloads = []*workload{
	{
		name:         "wire_short",
		why:          "short messages on warm pinned caches: ~70% of a request is TCP + JSON framing + connection handling, so rpc/edged work shows here and not on long_msg",
		members:      1,
		daemonArgs:   []string{"-buffer-threshold", "100000000"},
		conns:        2,
		usersPerConn: 4,
		minLen:       5, maxLen: 12,
		warmup: 5000, measured: 60000,
		accFloor:  0.85,
		replayCap: 10000,
	},
	{
		name:         "long_msg",
		why:          "90-102-token messages: semantic/mat/channel/edge compute is ~85% of daemon CPU and the wire under 15%, so kernel, tier and channel-stage work shows here and not on wire_short",
		members:      1,
		daemonArgs:   []string{"-buffer-threshold", "100000000"},
		conns:        2,
		usersPerConn: 4,
		minLen:       90, maxLen: 102,
		warmup: 1000, measured: 14000,
		accFloor:  0.85,
		replayCap: 2000,
	},
	{
		name:         "personalize",
		why:          "all-default daemon, Zipf users with idiolects: the inline fine-tune is p99 and most daemon CPU, and 32 (user,domain) models compete for 8 cache slots, so fl/cache policy work shows here",
		members:      1,
		conns:        2,
		usersPerConn: 8,
		zipfUsers:    true,
		minLen:       5, maxLen: 12,
		idiolect: 0.8,
		warmup:   4000, measured: 30000,
		accFloor:  0.55,
		replayCap: 8000,
	},
	{
		name:         "roam",
		why:          "2-member mesh, one serial stream with cell moves: handover push, cooperative fetch and ~50 KB rpc frames are ~40% of wall time; serial issue makes the response digest a function of the seed",
		members:      2,
		serial:       true,
		conns:        1,
		usersPerConn: 8,
		minLen:       5, maxLen: 12,
		idiolect: 0.8,
		moveProb: 0.3,
		cells:    2,
		warmup:   1000, measured: 7000,
		accFloor:  0.55,
		replayCap: 3000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// counts returns the per-connection warm-up and measured request counts
// at the given scale (seconds per repetition / nominalRepSeconds).
func (w *workload) counts(scale float64) (warm, meas int) {
	per := func(total int) int {
		n := int(float64(total)*scale+0.5) / w.conns
		if n < 1 {
			n = 1
		}
		return n
	}
	return per(w.warmup), per(w.measured)
}

// op is one generated request: a transmit, optionally preceded by a cell
// move of the same user.
type op struct {
	user int // global user index
	// move/cell: attach the user to cell before transmitting.
	move bool
	cell int
	msg  corpus.Message
	text string
}

func userName(u int) string { return "u" + fmt.Sprintf("%03d", u) }

// homeDomain returns the k-th (0 or 1) home domain of user u.
func homeDomain(u, k, domains int) int { return (3*u + k) % domains }

// genStreams generates the request stream of every connection for one
// repetition: warm-up ops first, then the measured ops. All randomness
// splits from one root in a fixed order, so (workload, seed, scale)
// determines the streams byte for byte.
func genStreams(w *workload, corp *corpus.Corpus, seed uint64, scale float64) [][]op {
	warm, meas := w.counts(scale)
	root := mat.NewRNG(seed)
	streams := make([][]op, w.conns)
	for c := range streams {
		sched := root.Split()
		var zipf *mat.Zipf
		if w.zipfUsers {
			zipf = mat.NewZipf(sched.Split(), w.usersPerConn, 1.0)
		}
		gens := make([]*corpus.Generator, w.usersPerConn)
		idios := make([]*corpus.Idiolect, w.usersPerConn)
		for i := range gens {
			gens[i] = corpus.NewGenerator(corp, root.Split())
			gens[i].MinLen, gens[i].MaxLen = w.minLen, w.maxLen
			if w.idiolect > 0 {
				idios[i] = corpus.NewIdiolect(corp, mat.NewRNG(idiolectSeed+uint64(c*w.usersPerConn+i)), w.idiolect)
			}
		}
		ops := make([]op, warm+meas)
		for i := range ops {
			var local int
			switch {
			case w.zipfUsers:
				local = zipf.Sample()
			case w.serial:
				local = sched.Intn(w.usersPerConn)
			default:
				local = i % w.usersPerConn
			}
			o := &ops[i]
			o.user = c*w.usersPerConn + local
			if w.moveProb > 0 && sched.Float64() < w.moveProb {
				o.move = true
				o.cell = sched.Intn(w.cells)
			}
			var di int
			if w.idiolect > 0 {
				di = homeDomain(o.user, sched.Intn(2), len(corp.Domains))
			} else {
				di = sched.Intn(len(corp.Domains))
			}
			o.msg = gens[local].Message(di, idios[local])
			o.text = o.msg.Text()
		}
		streams[c] = ops
	}
	return streams
}

// router mirrors the mesh members' ownership view client-side: the same
// consistent-hash ring plus an override per user that a move installs
// (target rule: live members sorted by index, cell modulo their count).
type router struct {
	members  []int
	ring     *cluster.Ring
	override map[string]int
}

func newRouter(members int) *router {
	idx := make([]int, members)
	for i := range idx {
		idx[i] = i
	}
	return &router{
		members:  idx,
		ring:     cluster.NewRingFor(idx, ringReplicas, systemSeed),
		override: make(map[string]int),
	}
}

func (r *router) owner(user string) int {
	if n, ok := r.override[user]; ok {
		return n
	}
	return r.ring.Node(user)
}

// cellOwner is the member a move to cell lands on.
func (r *router) cellOwner(cell int) int {
	n := len(r.members)
	return r.members[((cell%n)+n)%n]
}

func (r *router) moved(user string, cell int) { r.override[user] = r.cellOwner(cell) }

// foldResponse folds the deterministic fields of one response into the
// run digest, order-sensitively (the same mixing semload uses).
func foldResponse(digest *uint64, parts ...string) {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	*digest ^= h.Sum64() + 0x9e3779b97f4a7c15 + (*digest << 6) + (*digest >> 2)
}
