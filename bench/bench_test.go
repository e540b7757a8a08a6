package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mesh"
	"repro/internal/rpc"
)

// streamBytes renders streams in wire order, as the daemon would see them
// from each connection.
func streamBytes(streams [][]op) []byte {
	var out []byte
	for c, ops := range streams {
		out = append(out, "conn "...)
		out = strconv.AppendInt(out, int64(c), 10)
		out = append(out, '\n')
		for i := range ops {
			o := &ops[i]
			if o.move {
				out = append(out, "move "...)
				out = append(out, userName(o.user)...)
				out = append(out, ' ')
				out = strconv.AppendInt(out, int64(o.cell), 10)
				out = append(out, '\n')
			}
			out = append(out, "transmit "...)
			out = append(out, userName(o.user)...)
			out = append(out, ' ')
			out = append(out, o.text...)
			out = append(out, '\n')
		}
	}
	return out
}

// Same seed, same bytes; another seed, other bytes — per workload.
func TestStreamsDeterministic(t *testing.T) {
	corp := corpus.Build()
	for _, w := range workloads {
		a := streamBytes(genStreams(w, corp, 7, 0.02))
		b := streamBytes(genStreams(w, corp, 7, 0.02))
		c := streamBytes(genStreams(w, corp, 8, 0.02))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed generated different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same request stream", w.name)
		}
	}
}

// The shapes the workload table promises: counts, users per connection,
// message lengths, home domains and moves.
func TestStreamShapes(t *testing.T) {
	corp := corpus.Build()
	for _, w := range workloads {
		warm, meas := w.counts(0.1)
		streams := genStreams(w, corp, 3, 0.1)
		if len(streams) != w.conns {
			t.Fatalf("%s: %d streams, want %d", w.name, len(streams), w.conns)
		}
		moves := 0
		for c, ops := range streams {
			if len(ops) != warm+meas {
				t.Fatalf("%s conn %d: %d ops, want %d", w.name, c, len(ops), warm+meas)
			}
			for i := range ops {
				o := &ops[i]
				if o.user/w.usersPerConn != c {
					t.Fatalf("%s conn %d: user %d belongs to another connection", w.name, c, o.user)
				}
				if n := len(o.msg.Words); n < w.minLen || n > w.maxLen {
					t.Fatalf("%s: message of %d tokens outside [%d,%d]", w.name, n, w.minLen, w.maxLen)
				}
				if w.idiolect > 0 {
					d := o.msg.DomainIndex
					if d != homeDomain(o.user, 0, 8) && d != homeDomain(o.user, 1, 8) {
						t.Fatalf("%s: user %d sent domain %d, not a home domain", w.name, o.user, d)
					}
				}
				if o.move {
					moves++
					if o.cell < 0 || o.cell >= w.cells {
						t.Fatalf("%s: move to cell %d of %d", w.name, o.cell, w.cells)
					}
				}
			}
		}
		if (moves > 0) != (w.moveProb > 0) {
			t.Errorf("%s: %d moves with moveProb %.2f", w.name, moves, w.moveProb)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// A set's value is the median over its repetitions, whatever their order.
	s := &set{metrics: []map[string]float64{{"x": 9}, {"x": 2}, {"x": 7}, {"x": 1}, {"x": 8}}}
	if got := s.median("x"); got != 7 {
		t.Errorf("set median = %v, want 7", got)
	}
	if lo, hi := s.minmax("x"); lo != 1 || hi != 9 {
		t.Errorf("set minmax = %v, %v; want 1, 9", lo, hi)
	}
	// p99 of an unsorted sample, as e2eOf takes it.
	lats := make([]float64, 101)
	for i := range lats {
		lats[i] = float64(100 - i)
	}
	m := e2eOf(&repResult{scaledLats: lats}, 0)
	if m["lat_p50_ms"] != 50 || m["lat_p99_ms"] != 99 {
		t.Errorf("lat p50, p99 = %v, %v; want 50, 99", m["lat_p50_ms"], m["lat_p99_ms"])
	}
}

func TestWordAccuracy(t *testing.T) {
	corp := corpus.Build()
	d := corp.Domains[0]
	concepts := []int{0, 1, d.NumFunction, d.NumFunction + 1}
	restored := ""
	for i, ci := range concepts {
		if i > 0 {
			restored += " "
		}
		restored += d.Canonical(ci)
	}
	if got := wordAccuracy(restored, d, concepts); got != 1 {
		t.Errorf("exact restore scored %v, want 1", got)
	}
	if got := wordAccuracy(d.Canonical(0)+" zzz", d, concepts); got != 0.25 {
		t.Errorf("one of four scored %v, want 0.25", got)
	}
	if got := wordAccuracy("", d, concepts); got != 0 {
		t.Errorf("empty restore scored %v, want 0", got)
	}
}

// The client-side ring and move override must agree with what a mesh
// member computes, or a routed request lands on a member without the
// user's state.
func TestRouterMatchesMeshOwner(t *testing.T) {
	members := []rpc.PeerInfo{
		{Name: "node-0", Index: 0, Addr: "127.0.0.1:1"},
		{Name: "node-1", Index: 1, Addr: "127.0.0.1:2"},
	}
	node, err := mesh.NewNode(mesh.Config{Self: members[0], Peers: members[1:], RingSeed: systemSeed})
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(len(members))
	seen := map[int]int{}
	for u := 0; u < 1000; u++ {
		user := userName(u)
		if got, want := r.owner(user), node.Owner(user); got != want {
			t.Fatalf("%s: router owner %d, mesh owner %d", user, got, want)
		}
		seen[r.owner(user)]++
	}
	if len(seen) != 2 {
		t.Errorf("ring put all 1000 users on one member: %v", seen)
	}
	live := node.LiveMembers()
	for cell := -3; cell < 5; cell++ {
		want := live[((cell%len(live))+len(live))%len(live)]
		if got := r.cellOwner(cell); got != want {
			t.Errorf("cell %d: router target %d, mesh target %d", cell, got, want)
		}
	}
	r.moved("u001", 1)
	if r.owner("u001") != 1 {
		t.Errorf("override after move not applied")
	}
}

// A yardstick burst completes every round trip and reads a positive speed;
// after close the next burst fails instead of hanging.
func TestYardstickBurst(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if sp, err := y.burst(); err != nil || sp <= 0 {
			t.Fatalf("burst %d = %v, %v", i, sp, err)
		}
	}
	y.close()
	if _, err := y.burst(); err == nil {
		t.Error("burst on a closed yardstick succeeded")
	}
}

// The timed end-to-end metrics are medians over the slices' scaled values
// and percentiles over the scaled latencies, so one slow slice moves none.
func TestE2EOfIgnoresOneSlowSlice(t *testing.T) {
	r := &repResult{}
	r.ok = 300
	for i := 0; i < 5; i++ {
		sl := slice{reqPerS: 1000, cpuUsPerReq: 50}
		if i == 2 {
			sl = slice{reqPerS: 100, cpuUsPerReq: 500}
		}
		r.slices = append(r.slices, sl)
	}
	for i := 0; i < 300; i++ {
		r.scaledLats = append(r.scaledLats, 0.2)
	}
	r.scaledLats[7] = 40
	m := e2eOf(r, 0)
	if m["req_per_s"] != 1000 || m["cpu_us_per_req"] != 50 || m["lat_p50_ms"] != 0.2 || m["lat_p99_ms"] != 0.2 {
		t.Errorf("e2eOf = %v", m)
	}
}

// The process CPU clock agrees with getrusage on the benchmark's own
// process and rejects a pid that does not exist.
func TestProcCPUSeconds(t *testing.T) {
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	got, err := procCPUSeconds(os.Getpid())
	if err != nil || x == 0 {
		t.Fatal(err)
	}
	if want := selfCPUSeconds(); got <= 0 || math.Abs(got-want) > 0.05 {
		t.Errorf("procCPUSeconds = %v, getrusage says %v", got, want)
	}
	if _, err := procCPUSeconds(1<<22 - 1); err == nil {
		t.Error("cpu clock of a pid nobody has was read")
	}
}

// Every emitted metric name is well-formed, and the declared sets equal
// the ones in BENCHMARK.json, field for field.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench has %q (or their why lines differ)", i, decl.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	if fmt.Sprint(decl.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end differs:\n json  %v\n bench %v", decl.EndToEnd, endToEnd)
	}
	setup := false
	for _, m := range endToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %q (%q): malformed name or unit", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, bench has %d", len(decl.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		j := decl.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %v, bench has %v", i, j, m)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %q (%q): malformed name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("per_layer %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	// What a run emits is exactly what is declared.
	e2e := e2eOf(&repResult{}, 0)
	var got, want []string
	for k := range e2e {
		got = append(got, k)
	}
	for _, m := range endToEnd {
		want = append(want, m.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("e2eOf emits %v, declared %v", got, want)
	}
	empty := &repResult{before: &rpc.Stats{}, after: &rpc.Stats{}}
	layer := layerOf(&env{}, empty, &replayResult{stageUs: map[string]float64{}}, frameCosts{}, 0)
	if len(layer) != len(perLayer) {
		t.Errorf("layerOf emits %d metrics, declared %d", len(layer), len(perLayer))
	}
	for k := range layer {
		if !seen[k] {
			t.Errorf("layerOf emits undeclared metric %q", k)
		}
	}
}
