package experiments

import "testing"

func TestE9Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE9(env, E9Options{
		Donors: 6, SentencesPerDonor: 32, Rounds: 3, ProbeUsers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stock, fed := res.Rows[0], res.Rows[1]
	if fed.ColdStartAcc <= stock.ColdStartAcc {
		t.Fatalf("FedAvg did not improve cold start: %v -> %v",
			stock.ColdStartAcc, fed.ColdStartAcc)
	}
	if fed.GenericAcc < stock.GenericAcc-0.05 {
		t.Fatalf("FedAvg degraded generic traffic: %v -> %v",
			stock.GenericAcc, fed.GenericAcc)
	}
	if len(res.TableE().rows) != 2 {
		t.Fatal("table shape wrong")
	}
}

func TestE10Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE10(env, E10Options{Frames: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sem, raw3, raw6 := res.Rows[0], res.Rows[1], res.Rows[2]
	// At an equal byte budget the semantic codec must reconstruct better:
	// it spends its bits on the pose manifold, not on every raw dimension.
	if sem.BytesPerPose > raw3.BytesPerPose+1 {
		t.Fatalf("semantic bytes (%v) should be <= equal-budget raw (%v)",
			sem.BytesPerPose, raw3.BytesPerPose)
	}
	if sem.NMSE >= raw3.NMSE {
		t.Fatalf("semantic NMSE (%v) should beat equal-byte raw (%v)", sem.NMSE, raw3.NMSE)
	}
	// Raw transport can buy quality, but only by paying ~2.4x the bytes.
	if raw6.BytesPerPose <= 2*sem.BytesPerPose {
		t.Fatalf("raw 6-bit bytes (%v) should cost over 2x semantic (%v)",
			raw6.BytesPerPose, sem.BytesPerPose)
	}
	if raw6.NMSE >= raw3.NMSE {
		t.Fatalf("raw 6-bit (%v) should beat raw 3-bit (%v)", raw6.NMSE, raw3.NMSE)
	}
	if len(res.TableF().rows) != 3 {
		t.Fatal("table shape wrong")
	}
}

func TestErasureAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping erasure ablation sweep in -short")
	}
	env := Environment()
	res, err := RunAblations(env, AblationOptions{Messages: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Erasure) != 5 {
		t.Fatalf("erasure rows = %d", len(res.Erasure))
	}
	// Semantic must degrade gracefully: at 10% erasures it should stay far
	// above the traditional pipeline.
	var at10 ErasureRow
	for _, row := range res.Erasure {
		if row.ErasureP == 0.10 {
			at10 = row
		}
	}
	if at10.SemanticAcc <= at10.TraditionalAcc {
		t.Fatalf("at 10%% erasures semantic (%v) should beat traditional (%v)",
			at10.SemanticAcc, at10.TraditionalAcc)
	}
	// Monotone degradation with erasure rate for the semantic pipeline.
	for i := 1; i < len(res.Erasure); i++ {
		if res.Erasure[i].SemanticAcc > res.Erasure[i-1].SemanticAcc+0.05 {
			t.Fatalf("semantic accuracy not degrading with erasures: %v",
				res.Erasure)
		}
	}
	if len(res.Tables()) != 3 {
		t.Fatal("expected 3 ablation tables")
	}
}

func TestE11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is slow; run without -short")
	}
	env := Environment()
	opts := E11Options{
		Policies:      []string{"lru", "gdsf"},
		NodeCounts:    []int{2, 3},
		MobilityRates: []float64{0, 0.1},
		Users:         12,
		Requests:      1200,
	}
	res, err := RunE11(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	cell := func(p string, n int, r float64) E11Cell {
		for _, c := range res.Cells {
			if c.Policy == p && c.Nodes == n && c.MobilityRate == r {
				return c
			}
		}
		t.Fatalf("missing cell %s/%d/%v", p, n, r)
		return E11Cell{}
	}
	for _, p := range opts.Policies {
		static := cell(p, 2, 0)
		mobile := cell(p, 2, 0.1)
		if static.Handovers != 0 || static.MigratedKB != 0 {
			t.Fatalf("%s: static population reported handovers: %+v", p, static)
		}
		if mobile.Handovers == 0 || mobile.MigratedKB <= 0 {
			t.Fatalf("%s: mobile population reported no handovers: %+v", p, mobile)
		}
		if mobile.NeighborShare <= 0 {
			t.Fatalf("%s: cluster never fetched cooperatively: %+v", p, mobile)
		}
		if static.LocalHitRate <= 0 || mobile.LocalHitRate <= 0 {
			t.Fatalf("%s: hit rates missing", p)
		}
	}
	// Table G is pinned cell for cell to what this sweep measured on the
	// in-process cluster at the last commit that had one (PR 16's tree):
	// re-expressing the experiment on mesh members changed how the nodes
	// talk — wire frames instead of shared memory — and none of the
	// hit/miss, neighbor/origin, handover or latency accounting.
	golden := []E11Cell{
		{Policy: "lru", Nodes: 2, MobilityRate: 0, LocalHitRate: 0.7551181102362204, NeighborShare: 0.3987138263665595, Handovers: 0, MigratedKB: 0, MeanFetchMs: 6.968333333333334},
		{Policy: "lru", Nodes: 2, MobilityRate: 0.1, LocalHitRate: 0.7425665101721439, NeighborShare: 0.40425531914893614, Handovers: 57, MigratedKB: 104.6494140625, MeanFetchMs: 7.3133333333333335},
		{Policy: "lru", Nodes: 3, MobilityRate: 0, LocalHitRate: 0.8275590551181102, NeighborShare: 0.5570776255707762, Handovers: 0, MigratedKB: 0, MeanFetchMs: 3.88},
		{Policy: "lru", Nodes: 3, MobilityRate: 0.1, LocalHitRate: 0.7844961240310078, NeighborShare: 0.5755395683453237, Handovers: 76, MigratedKB: 259.02734375, MeanFetchMs: 4.6275},
		{Policy: "gdsf", Nodes: 2, MobilityRate: 0, LocalHitRate: 0.7606299212598425, NeighborShare: 0.2894736842105263, Handovers: 0, MigratedKB: 0, MeanFetchMs: 7.793333333333333},
		{Policy: "gdsf", Nodes: 2, MobilityRate: 0.1, LocalHitRate: 0.7230046948356808, NeighborShare: 0.3446327683615819, Handovers: 57, MigratedKB: 103.90625, MeanFetchMs: 8.458333333333334},
		{Policy: "gdsf", Nodes: 3, MobilityRate: 0, LocalHitRate: 0.7937007874015748, NeighborShare: 0.37786259541984735, Handovers: 0, MigratedKB: 0, MeanFetchMs: 6.030833333333334},
		{Policy: "gdsf", Nodes: 3, MobilityRate: 0.1, LocalHitRate: 0.7717391304347826, NeighborShare: 0.5136054421768708, Handovers: 76, MigratedKB: 232.8173828125, MeanFetchMs: 5.44},
	}
	for i, want := range golden {
		if res.Cells[i] != want {
			t.Errorf("Table G cell %d drifted from the in-process cluster golden:\n got %+v\nwant %+v", i, res.Cells[i], want)
		}
	}
	// Determinism: the sweep must reproduce bit-identically.
	res2, err := RunE11(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		if res.Cells[i] != res2.Cells[i] {
			t.Fatalf("cell %d not deterministic: %+v != %+v", i, res.Cells[i], res2.Cells[i])
		}
	}
	if len(res.TableG().rows) != 8 {
		t.Fatal("table shape wrong")
	}
}
