package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// This file spawns mesh members and drives the mobility scenario: -mesh
// lists the members of an edged mesh and semload routes every request
// client-side through a mesh.Router — the same consistent-hash ring the
// daemons build, plus explicit ownership overrides after moves. -spawn
// launches the members as child edged processes first, which is also
// what arms -chaos-kill: halfway
// through the run one child is SIGKILLed, the router discovers the death
// through a failed call, recomputes the ring over the survivors and
// retries — a retried request is a rebalance, a failed one is a lost
// request and fails the run.

// survivorOriginFetches sums OriginFetches over every live member except
// skip — the "zero origin re-fetches after a graceful drain" gate reads
// this before and after the SIGTERM.
func survivorOriginFetches(router *mesh.Router, skip int) (int64, error) {
	st, err := router.MergedStats()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range st.Nodes {
		if n.Name != fmt.Sprintf("node-%d", skip) {
			total += n.OriginFetches
		}
	}
	return total, nil
}

// spawnMesh launches one edged child per mesh member and waits until
// every one answers a ping. The returned stop function kills any child
// still running. replicas > 0 is forwarded as -replicas, arming
// hot-model replication on every member.
func spawnMesh(bin string, addrs []string, seed uint64, kbDir string, replicas int) ([]*exec.Cmd, func(), error) {
	peers := strings.Join(addrs, ",")
	children := make([]*exec.Cmd, len(addrs))
	stop := func() {
		for _, c := range children {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}
	for i, addr := range addrs {
		args := []string{
			"-addr", addr,
			"-peers", peers,
			"-mesh-index", strconv.Itoa(i),
			"-seed", strconv.FormatUint(seed, 10),
			"-probe-interval", "100ms",
		}
		if kbDir != "" {
			args = append(args, "-kb", kbDir)
		}
		if replicas > 0 {
			args = append(args, "-replicas", strconv.Itoa(replicas))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("spawn %s: %w", addr, err)
		}
		children[i] = cmd
	}
	// Pretraining at boot can take a while; with -kb members come up fast.
	deadline := time.Now().Add(3 * time.Minute)
	for _, addr := range addrs {
		for {
			cl, err := rpc.Dial(addr)
			if err == nil {
				err = cl.Ping()
				cl.Close()
			}
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				stop()
				return nil, nil, fmt.Errorf("member %s not up after %v: %w", addr, 3*time.Minute, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return children, stop, nil
}

// runMeshMobility drives the churn scenario: one serial, fully seeded
// stream in which each step may first move the emitting user to a random
// cell (a handover when the serving member changes) and then transmits
// one message, routed client-side, with an optional chaos kill (SIGKILL)
// or chaos term (SIGTERM, graceful drain) halfway through. Serial
// execution is what makes the run digest reproducible: responses arrive
// in issue order. The run fails on any client-visible error, on a run
// with no handovers, or on one where the cold members never refilled
// their caches from a neighbor — the acceptance gates of the multi-node
// deployment. Chaos term adds the drain gates: the victim must exit
// cleanly within its drain budget, and the survivors must finish the run
// with zero new origin fetches — every model the drained member owned
// arrived by handoff, not by re-fetching.
func runMeshMobility(router *mesh.Router, addrs []string, children []*exec.Cmd, chaosKill, chaosTerm bool,
	users, requests, cells int, moveRate float64, seed uint64, corp *corpus.Corpus, cum []float64) error {
	root := mat.NewRNG(seed)
	sched := root.Split()
	gens := make([]*corpus.Generator, users)
	for i := range gens {
		gens[i] = corpus.NewGenerator(corp, root.Split())
	}

	killAt := -1
	victim := 0
	if chaosKill || chaosTerm {
		killAt = requests / 2
		// Kill the member serving the most traffic-relevant slot after
		// member 0 (which holds the warm cache): the highest-index member,
		// so survivors span both a warm and a cold node.
		victim = len(addrs) - 1
	}
	var preOrigin int64

	var (
		digest    uint64
		hist      = metrics.NewLatencyHistogram()
		handovers int
		moves     int
		daemonErr int
	)
	start := time.Now()
	for i := 0; i < requests; i++ {
		if i == killAt {
			if chaosTerm {
				var err error
				if preOrigin, err = survivorOriginFetches(router, victim); err != nil {
					return fmt.Errorf("pre-drain stats: %w", err)
				}
				fmt.Fprintf(os.Stderr, "semload: chaos: draining member %d (%s) at request %d\n",
					victim, addrs[victim], i)
				// SIGTERM, no Wait: the victim drains while the load keeps
				// flowing; requests it parks answer Draining after handoff.
				if err := children[victim].Process.Signal(syscall.SIGTERM); err != nil {
					return fmt.Errorf("signal member %d: %w", victim, err)
				}
			} else {
				fmt.Fprintf(os.Stderr, "semload: chaos: killing member %d (%s) at request %d\n",
					victim, addrs[victim], i)
				children[victim].Process.Kill()
				children[victim].Wait()
				children[victim] = nil
			}
		}
		u := sched.Intn(users)
		user := fmt.Sprintf("u%03d", u)
		// Mobility pauses once the kill happened: a move issued inside a
		// surviving member's probe window may legitimately fail against the
		// dead peer, and the chaos gate is about transmits, not moves.
		if (killAt < 0 || i < killAt) && sched.Float64() < moveRate {
			cell := sched.Intn(cells)
			resp, err := router.Move(user, cell)
			if err != nil {
				return fmt.Errorf("move %s: %w", user, err)
			}
			if !resp.OK {
				return fmt.Errorf("move %s: daemon error %q", user, resp.Error)
			}
			if resp.Handover == nil {
				return fmt.Errorf("move %s: daemon sent no handover result (version skew?)", user)
			}
			moves++
			if resp.Handover.Moved {
				handovers++
			}
			foldResponse(&digest, "move", user, strconv.Itoa(cell),
				resp.Handover.From, resp.Handover.To,
				strconv.FormatBool(resp.Handover.Moved),
				strconv.FormatInt(resp.Handover.MigratedBytes, 10))
		}
		di := pickDomain(sched, cum)
		msg := gens[u].Message(di, nil)
		reqStart := time.Now()
		resp, err := router.Transmit(context.Background(), user, msg.Text())
		if err != nil {
			return fmt.Errorf("request %d lost: %w", i, err)
		}
		hist.Observe(float64(time.Since(reqStart)) / float64(time.Millisecond))
		if !resp.OK {
			daemonErr++
			foldResponse(&digest, "error", user, resp.Error)
			continue
		}
		foldResponse(&digest, "transmit", user, resp.Restored, resp.SelectedDomain,
			strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
			strconv.Itoa(resp.PayloadBytes),
			strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
	}
	elapsed := time.Since(start)

	var drainOrigin int64
	if chaosTerm {
		// The drained member must exit on its own, cleanly, within its
		// drain budget — a hung drain or a crash-stop fallback fails the run.
		waitCh := make(chan error, 1)
		go func() { waitCh <- children[victim].Wait() }()
		select {
		case err := <-waitCh:
			if err != nil {
				return fmt.Errorf("drained member %d exited abnormally: %w", victim, err)
			}
		case <-time.After(60 * time.Second):
			return fmt.Errorf("drained member %d did not exit within 60s", victim)
		}
		children[victim] = nil
		router.MarkDead(victim)
		post, err := survivorOriginFetches(router, victim)
		if err != nil {
			return fmt.Errorf("post-drain stats: %w", err)
		}
		drainOrigin = post - preOrigin
		fmt.Fprintf(os.Stderr, "semload: chaos: member %d drained cleanly, survivor origin fetches +%d\n",
			victim, drainOrigin)
	}

	fmt.Printf("requests : %d ok, %d daemon errors, %d rerouted, %d users (serial), %.2fs\n",
		requests-daemonErr, daemonErr, router.Retries, users, elapsed.Seconds())
	fmt.Printf("rate     : %.1f req/s (closed loop)\n", float64(requests)/elapsed.Seconds())
	fmt.Printf("latency  : mean %.2f ms  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
		hist.Mean(), hist.P(50), hist.P(95), hist.P(99))
	fmt.Printf("mobility : %d moves, %d handovers, %d cells, rate %.2f\n", moves, handovers, cells, moveRate)
	fmt.Printf("digest   : %016x\n", digest)

	st, err := router.MergedStats()
	if err != nil {
		return fmt.Errorf("merged stats: %w", err)
	}
	st.Print(os.Stdout) // the live members' counters, merged
	var neighborHits int64
	for _, n := range st.Nodes {
		neighborHits += n.NeighborHits
	}

	// Acceptance gates (non-zero exit on violation, for CI).
	if daemonErr > 0 {
		return fmt.Errorf("%d client-visible errors after rebalance", daemonErr)
	}
	if handovers == 0 {
		return fmt.Errorf("run produced no handovers (moveRate %.2f too low or mesh not rebalancing)", moveRate)
	}
	if neighborHits == 0 {
		return fmt.Errorf("no neighbor cache fetches: cold members never refilled cooperatively")
	}
	if (chaosKill || chaosTerm) && router.Retries == 0 {
		return fmt.Errorf("chaos was invisible: no request was ever rerouted")
	}
	if chaosTerm && drainOrigin != 0 {
		return fmt.Errorf("graceful drain lost models: survivors paid %d origin re-fetches", drainOrigin)
	}
	return nil
}
