package edge

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/nn"
)

// personalizeOn runs enough idiolect traffic through srv to produce a
// fine-tuned individual model for u1, returning the idiolect.
func personalizeOn(t *testing.T, srv *Server, corp *corpus.Corpus, seed uint64) *corpus.Idiolect {
	t.Helper()
	rng := mat.NewRNG(seed)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	srv.bufferThreshold = 24
	for i := 0; i < 24; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		if _, _, err := srv.RecordTransaction(nil, "it", "u1", m.Words, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.RunUpdate("it", "u1", fl.UpdateConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return idio
}

// exportU1 is the two ends of a handover of u1's "it" model: srv's export,
// and the parameters the importing side parses from it.
func exportU1(t *testing.T, srv *Server) (*ExportedModel, *nn.ParamSet) {
	t.Helper()
	m, _, err := srv.AppendUserModel(nil, "it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	params, err := nn.ParseParamSet(m.Params)
	if err != nil {
		t.Fatal(err)
	}
	return m, params
}

func TestHandoverPreservesModel(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	idio := personalizeOn(t, edgeA, corp, 51)

	exported, params := exportU1(t, edgeA)
	if exported.SizeBytes() <= 0 || exported.Version != 1 {
		t.Fatalf("export metadata wrong: %+v", exported)
	}
	if err := edgeB.InstallUserModel(exported, params); err != nil {
		t.Fatal(err)
	}

	// The imported model must decode identically to the source model.
	a, err := edgeA.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := edgeB.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Individual {
		t.Fatal("import did not create an individual model")
	}
	if b.Model.Version != 1 {
		t.Fatalf("imported version = %d", b.Model.Version)
	}
	gen := corpus.NewGenerator(corp, mat.NewRNG(52))
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for i := 0; i < 20; i++ {
		m := gen.Message(corp.Domain("it").Index, idio)
		x, y := make([]int, len(m.Words)), make([]int, len(m.Words))
		a.Model.Codec.RoundTripInto(sc, m.Words, x)
		b.Model.Codec.RoundTripInto(sc, m.Words, y)
		for j := range x {
			if x[j] != y[j] {
				t.Fatal("imported model decodes differently")
			}
		}
	}
}

func TestExportWithoutIndividualModel(t *testing.T) {
	srv := newServer(t, 4, nil)
	if _, _, err := srv.AppendUserModel(nil, "it", "nobody"); err == nil {
		t.Fatal("export without individual model accepted")
	}
}

// TestImportRejectsGarbage: junk payload bytes do not parse, and a payload
// that parses but holds no codec's tensors is refused by the install,
// which then caches nothing for the user.
func TestImportRejectsGarbage(t *testing.T) {
	if _, err := nn.ParseParamSet([]byte("junk")); err == nil {
		t.Fatal("garbage payload parsed")
	}
	srv := newServer(t, 4, nil)
	m := &ExportedModel{Domain: "it", User: "u1", Version: 1}
	if err := srv.InstallUserModel(m, &nn.ParamSet{}); err == nil {
		t.Fatal("install of an empty parameter set accepted")
	}
	if domains := srv.UserDomains("u1"); len(domains) != 0 {
		t.Fatalf("a refused install left individual models %v", domains)
	}
}

func TestImportRejectsStaleVersion(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	personalizeOn(t, edgeA, corp, 53)
	exported, params := exportU1(t, edgeA)
	if err := edgeB.InstallUserModel(exported, params); err != nil {
		t.Fatal(err)
	}
	// A second install with an older version must be rejected.
	stale := *exported
	stale.Version = 0
	_, params = exportU1(t, edgeA)
	if err := edgeB.InstallUserModel(&stale, params); err == nil {
		t.Fatal("stale import accepted")
	}
}

func TestImportRejectsWrongDomainShapes(t *testing.T) {
	corp, _ := cloudFixture(t)
	edgeA := newServer(t, 6, nil)
	edgeB := newServer(t, 6, nil)
	personalizeOn(t, edgeA, corp, 54)
	exported, params := exportU1(t, edgeA)
	// Claim the payload is for a different domain: tensor shapes differ.
	exported.Domain = "medical"
	if err := edgeB.InstallUserModel(exported, params); err == nil {
		t.Fatal("cross-domain import accepted")
	}
}

// TestInstallOverwriteRejectsOtherShape: a newer payload of another shape
// for a model the server already caches fails the overwrite's shape check
// and leaves the cached parameters and version as they were. (core checks
// every payload's shape before an install, so only a direct caller of
// InstallUserModel reaches this refusal.)
func TestInstallOverwriteRejectsOtherShape(t *testing.T) {
	corp, _ := cloudFixture(t)
	srv := newServer(t, 6, nil)
	personalizeOn(t, srv, corp, 56)
	before, _ := exportU1(t, srv)
	medical, err := srv.AcquireCodec("medical", "")
	if err != nil {
		t.Fatal(err)
	}
	newer := &ExportedModel{Domain: "it", User: "u1", Version: before.Version + 1}
	if err := srv.InstallUserModel(newer, medical.Model.Codec.Params().Clone()); err == nil {
		t.Fatal("overwrite with a payload of another shape accepted")
	}
	after, _ := exportU1(t, srv)
	if after.Version != before.Version || !bytes.Equal(after.Params, before.Params) {
		t.Fatalf("a refused overwrite changed the cached model: version %d -> %d, params equal %v",
			before.Version, after.Version, bytes.Equal(after.Params, before.Params))
	}
}

// TestUserBuffersMatchWholeUserName: user names are client-supplied, so
// one may extend another past a "/" ("a", "a/b"). Exporting and dropping
// a for a handover must take exactly a's buffers: a key built by
// concatenation and matched by prefix took a/b's pending transactions too,
// and the import filed them under a.
func TestUserBuffersMatchWholeUserName(t *testing.T) {
	corp, _ := cloudFixture(t)
	src := newServer(t, 6, nil)
	gen := corpus.NewGenerator(corp, mat.NewRNG(55))
	record := func(user string, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := src.RecordTransaction(nil, "it", user, gen.Message(corp.Domain("it").Index, nil).Words, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	record("a", 2)
	record("a/b", 3)

	exported := src.ExportUserBuffers("a")
	if len(exported) != 1 || exported[0].Domain != "it" || len(exported[0].Txs) != 2 {
		t.Fatalf("export of a carries %+v, want its one buffer of 2 transactions", exported)
	}
	src.DropUser("a")
	if b := src.Buffer("it", "a"); b != nil {
		t.Fatalf("a's buffer survived the drop with %d transactions", b.Len())
	}
	if b := src.Buffer("it", "a/b"); b == nil || b.Len() != 3 {
		t.Fatalf("dropping a's buffers disturbed a/b's: %v", b)
	}
	dst := newServer(t, 6, nil)
	dst.ImportUserBuffers("a", exported)
	if b := dst.Buffer("it", "a"); b == nil || b.Len() != 2 {
		t.Fatalf("the new owner holds %v for a, want 2 transactions", b)
	}
}
