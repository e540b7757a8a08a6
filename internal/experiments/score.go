package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// Scored is one trace request's transmission, scored against the ground
// truth the trace carries.
type Scored struct {
	core.Result
	// Req is the originating request.
	Req trace.Request
	// CorrectSelection reports SelectedDomain == the request's true domain.
	CorrectSelection bool
	// WordAccuracy compares the restored words to the canonical surface of
	// each true concept.
	WordAccuracy float64
	// Similarity is the graded semantic fidelity in [0,1].
	Similarity float64
}

// RunTrace sends every request of w through sys.TransmitText in order —
// first setting oracle, the selector sys hands every user when it runs the
// oracle policy (nil otherwise), to each message's true domain — and
// scores each result. A single System has nowhere to move a user to, so
// the workload's mobility events are not applied.
func RunTrace(sys *core.System, oracle *Static, w *trace.Workload) ([]Scored, error) {
	out := make([]Scored, 0, len(w.Requests))
	for _, req := range w.Requests {
		if oracle != nil {
			oracle.DomainIndex = req.Msg.DomainIndex
		}
		res, err := sys.TransmitText(req.User, req.Msg.Words)
		if err != nil {
			return out, fmt.Errorf("experiments: request %d: %w", req.Seq, err)
		}
		out = append(out, score(sys, req, res))
	}
	return out, nil
}

// score rates res against req's ground truth.
func score(sys *core.System, req trace.Request, res *core.Result) Scored {
	msg := req.Msg
	trueDomain := sys.Corpus.Domains[msg.DomainIndex]
	canonical := make([]string, len(msg.ConceptIDs))
	for i, ci := range msg.ConceptIDs {
		canonical[i] = trueDomain.Canonical(ci)
	}
	sc := Scored{
		Result:           *res,
		Req:              req,
		CorrectSelection: res.SelectedDomain == msg.DomainIndex,
		WordAccuracy:     semantic.WordAccuracy(res.RestoredWords, canonical),
	}
	if !sc.CorrectSelection {
		// Cross-domain decoding has no shared concept space; fall back to
		// surface-level fidelity.
		sc.Similarity = sc.WordAccuracy
		return sc
	}
	// The receiver restores each decoded concept as its canonical surface,
	// and every surface maps back to its own concept, so the restored words
	// give back the decoded concepts exactly.
	decoded := make([]int, len(res.RestoredWords))
	for i, w := range res.RestoredWords {
		decoded[i] = trueDomain.SurfaceConcept(trueDomain.SurfaceID(w))
	}
	sc.Similarity = semantic.Similarity(sys.Generals[msg.DomainIndex], decoded, msg.ConceptIDs)
	return sc
}

// errNoResults reports summarizing an empty result set.
var errNoResults = errors.New("experiments: no results to summarize")

// Summary aggregates a scored result set.
type Summary struct {
	MeanWordAccuracy  float64
	MeanSimilarity    float64
	MeanMismatch      float64
	SelectionAccuracy float64
	MeanPayloadBytes  float64
	MeanLatency       time.Duration
	P95Latency        time.Duration
	IndividualShare   float64
}

// Summarize reduces results to aggregate metrics.
func Summarize(results []Scored) (Summary, error) {
	if len(results) == 0 {
		return Summary{}, errNoResults
	}
	var sum Summary
	latencies := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		sum.MeanWordAccuracy += r.WordAccuracy
		sum.MeanSimilarity += r.Similarity
		sum.MeanMismatch += r.Mismatch
		if r.CorrectSelection {
			sum.SelectionAccuracy++
		}
		sum.MeanPayloadBytes += float64(r.PayloadBytes)
		sum.MeanLatency += r.Latency
		latencies = append(latencies, float64(r.Latency))
		if r.UsedIndividual {
			sum.IndividualShare++
		}
	}
	n := float64(len(results))
	sum.MeanWordAccuracy /= n
	sum.MeanSimilarity /= n
	sum.MeanMismatch /= n
	sum.SelectionAccuracy /= n
	sum.MeanPayloadBytes /= n
	sum.MeanLatency /= time.Duration(len(results))
	sum.IndividualShare /= n
	sum.P95Latency = time.Duration(metrics.Percentile(latencies, 95))
	return sum, nil
}
