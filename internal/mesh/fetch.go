package mesh

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// parseRole maps the wire role name back to a kb.Role.
func parseRole(s string) (kb.Role, error) {
	for _, r := range []kb.Role{kb.RoleEncoder, kb.RoleDecoder, kb.RoleCodec} {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, errors.New("mesh: unknown model role " + s)
}

// FetchModel implements edge.Fetcher: resolve a local sender-cache miss
// cooperatively by probing live peers over the wire in ring order
// (nearest successor first), then fall back to the cloud origin. A
// neighbor hit costs one simulated mesh-link transfer of the model's
// role-sized parameters — wall-clock time spent on the round trip is not
// part of the model.
func (n *Node) FetchModel(k kb.Key) (edge.Fetch, error) {
	if n.origin == nil {
		return edge.Fetch{}, errors.New("mesh: node not bound to a system")
	}
	req := rpc.FetchRequest{Domain: k.Domain, User: k.User, Role: k.Role.String()}
	for off := 1; off < n.total; off++ {
		p, ok := n.peers[(n.self.Index+off)%n.total]
		if !ok || !p.usable() {
			continue
		}
		var payload *rpc.ModelPayload
		err := n.call(context.Background(), p, func(ctx context.Context, c *rpc.Client) error {
			var err error
			payload, err = c.FetchModel(ctx, req)
			return err
		})
		if err != nil {
			continue
		}
		if payload == nil {
			continue // peer cache miss; keep probing
		}
		m, err := n.reviveModel(k, payload)
		if err != nil {
			// The peer answered but the stream did not revive: the
			// connection's framing state is suspect, so tear the client
			// down rather than reuse it for the next call.
			p.close()
			n.cfg.Logf("mesh: fetch %s from %s: %v", k, p.info.Name, err)
			continue
		}
		lat := n.cfg.MeshLink.TransferTime(m.SizeBytes())
		n.neighborHits.Add(1)
		n.neighborBytes.Add(m.SizeBytes())
		n.fetchLatency.Add(int64(lat))
		return edge.Fetch{Model: m, Latency: lat, Remote: true}, nil
	}
	fetch, err := n.origin.FetchModel(k)
	if err != nil {
		return edge.Fetch{}, err
	}
	n.originFetches.Add(1)
	n.originBytes.Add(fetch.Model.SizeBytes())
	n.fetchLatency.Add(int64(fetch.Latency))
	return fetch, nil
}

// reviveModel reconstructs a kb.Model from its wire payload — the full
// codec stream, so the receiving process depends only on bytes that
// actually crossed the network, never on shared memory. The answer must
// be the general model that was asked for, in its label and in the
// stream itself: the result is cached under k and served from then on.
func (n *Node) reviveModel(k kb.Key, payload *rpc.ModelPayload) (*kb.Model, error) {
	if payload.User != "" || payload.Domain != k.Domain {
		return nil, fmt.Errorf("mesh: fetch of %s answered with a model labelled %q/%q", k, payload.Domain, payload.User)
	}
	codec, err := semantic.ParseCodec(payload.Params, n.corp)
	if err != nil {
		return nil, err
	}
	if got := codec.Domain().Name; got != k.Domain {
		return nil, fmt.Errorf("mesh: fetch of %s answered with a %q codec", k, got)
	}
	return &kb.Model{Key: k, Version: payload.Version, Codec: codec}, nil
}

// IndividualFetchError refuses an OpFetchModel that names a user's
// individual model. Cooperative fetch moves general models only; an
// individual model changes owner by handover, under the user's lock.
type IndividualFetchError struct {
	Domain, User string
}

func (e *IndividualFetchError) Error() string {
	return fmt.Sprintf("mesh: fetch-model serves general models only, not %s's individual model for %q", e.User, e.Domain)
}

// HandleFetch serves a peer's OpFetchModel: peek the local sender cache
// (Peek, so remote demand never distorts this node's own eviction order
// or hit statistics) and ship the full codec stream on a hit. A miss
// returns nil — the prober moves on to the next member. Only general
// models are served: the serve path never writes one, whereas a user's
// individual model is fine-tuned in place under that user's lock, which
// a fetch does not hold, so serializing one here could ship a torn model.
func (n *Node) HandleFetch(f rpc.FetchRequest) (*rpc.ModelPayload, error) {
	if f.User != "" {
		return nil, &IndividualFetchError{Domain: f.Domain, User: f.User}
	}
	role, err := parseRole(f.Role)
	if err != nil {
		return nil, err
	}
	sys := n.system()
	if sys == nil {
		return nil, errors.New("mesh: node not bound to a system")
	}
	payload, err := generalPayload(sys, kb.GeneralKey(f.Domain, role))
	if payload != nil {
		n.neighborServed.Add(1)
	}
	return payload, err
}
