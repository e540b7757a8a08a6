package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/nn"
	"repro/internal/selection"
)

// This file is the System-level half of mesh handover: the old owner
// exports a user's complete serving state, the mesh ships it over the
// wire, and the new owner imports it. Each member has its own receiver
// edge, so receiver-side individual models migrate with the sender-side
// ones, and the per-user noise sequence rides along so the user's
// channel-noise stream continues bit-identically.

// UserExport is one user's migratable serving state.
type UserExport struct {
	User string
	// NoiseSeq is the user's next channel-noise sequence number
	// (PerUserNoise mode).
	NoiseSeq uint64
	// Sender and Receiver hold the individual models each edge side
	// caches for the user.
	Sender   []*edge.ExportedModel
	Receiver []*edge.ExportedModel
	// Belief is the user's domain-selection posterior, when the selector
	// carries one (sticky); nil otherwise.
	Belief []float64
	// Buffers are the user's pending federated-update transactions, so
	// the next individual-model update fires at the same threshold
	// crossing on the new owner.
	Buffers []edge.BufferState
}

// SenderBytes sums the sender-side migration payload — the figure a
// handover reports as MigratedBytes.
func (e *UserExport) SenderBytes() int64 {
	var total int64
	for _, m := range e.Sender {
		total += m.SizeBytes()
	}
	return total
}

// ExportUserForHandover serializes the user's record — individual models
// from both edge sides, noise sequence, selection belief and pending
// buffers — under the user's lock so no transmit is mid-flight while the
// state is captured. Models evicted between enumeration and export are
// skipped: the user simply re-personalizes on the new node.
func (s *System) ExportUserForHandover(user string) (*UserExport, error) {
	st := s.lockUser(user)
	defer st.mu.Unlock()
	out := &UserExport{User: user, NoiseSeq: st.noiseSeq}
	export := func(srv *edge.Server, dst *[]*edge.ExportedModel) error {
		for _, domain := range srv.UserDomains(user) {
			exp, err := srv.ExportUserModel(domain, user)
			if errors.Is(err, edge.ErrNoIndividual) {
				continue
			}
			if err != nil {
				return fmt.Errorf("core: export %s/%s: %w", user, domain, err)
			}
			*dst = append(*dst, exp)
		}
		return nil
	}
	if err := export(s.Sender, &out.Sender); err != nil {
		return nil, err
	}
	if err := export(s.Receiver, &out.Receiver); err != nil {
		return nil, err
	}
	if bc, ok := st.sel.(selection.BeliefCarrier); ok {
		out.Belief = bc.ExportBelief()
	}
	out.Buffers = s.Sender.ExportUserBuffers(user)
	return out, nil
}

// BadHandoverError reports a handover export whose model payloads or
// transaction buffers do not fit this system's knowledge bases. The export
// was rejected whole: nothing of it was installed.
type BadHandoverError struct {
	User   string
	Domain string
	Reason string
}

func (e *BadHandoverError) Error() string {
	return fmt.Sprintf("core: bad handover for %s/%s: %s", e.User, e.Domain, e.Reason)
}

// checkHandoverBuffers validates the pending transactions of an export
// against the local domains. They arrive from a peer process, and the next
// update process indexes embeddings and logits with them: an ID out of
// range there would panic the trainer instead of failing the import.
func (s *System) checkHandoverBuffers(exp *UserExport) error {
	for _, b := range exp.Buffers {
		bad := func(format string, args ...interface{}) error {
			return &BadHandoverError{User: exp.User, Domain: b.Domain, Reason: fmt.Sprintf(format, args...)}
		}
		d := s.Corpus.Domain(b.Domain)
		if d == nil {
			return bad("unknown domain")
		}
		for i, tx := range b.Txs {
			if len(tx.SurfaceIDs) != len(tx.ConceptIDs) {
				return bad("transaction %d has %d surfaces but %d concepts", i, len(tx.SurfaceIDs), len(tx.ConceptIDs))
			}
			for _, sid := range tx.SurfaceIDs {
				if sid < 0 || sid >= d.VocabSize() {
					return bad("transaction %d: surface %d outside [0, %d)", i, sid, d.VocabSize())
				}
			}
			for _, cid := range tx.ConceptIDs {
				if cid < -1 || cid >= d.NumConcepts() {
					return bad("transaction %d: concept %d outside [-1, %d)", i, cid, d.NumConcepts())
				}
			}
		}
	}
	return nil
}

// decodeHandoverModels parses every model payload of one edge side and
// checks it against the export it rides in — it must be the export's
// user's, and the only one for its domain — and against the general model
// of its domain: the model the individual is cloned from on install, so a
// payload that fits it cannot fail the install's own shape check. Every
// weight must be finite — a model holding one NaN decodes every token to
// concept 0 from then on, and nothing downstream would notice. The
// parsed sets come back in input order for the install to use, so no
// payload is read twice.
func (s *System) decodeHandoverModels(user string, models []*edge.ExportedModel) ([]*nn.ParamSet, error) {
	out := make([]*nn.ParamSet, len(models))
	seen := make(map[string]bool, len(models))
	for i, m := range models {
		bad := func(format string, args ...interface{}) error {
			return &BadHandoverError{User: user, Domain: m.Domain, Reason: fmt.Sprintf(format, args...)}
		}
		if m.User != user {
			return nil, bad("carries a model of user %q", m.User)
		}
		if seen[m.Domain] {
			return nil, bad("two models for one edge side")
		}
		seen[m.Domain] = true
		general, ok := s.Cloud.Get(kb.GeneralKey(m.Domain, kb.RoleCodec))
		if !ok {
			return nil, bad("unknown domain")
		}
		params, err := nn.ReadParamSet(bytes.NewReader(m.Params))
		if err != nil {
			return nil, bad("model payload: %v", err)
		}
		if err := general.Codec.CheckParamShape(params); err != nil {
			return nil, bad("model payload: %v", err)
		}
		if err := params.CheckFinite(); err != nil {
			return nil, bad("model payload: %v", err)
		}
		out[i] = params
	}
	return out, nil
}

// checkHandoverVersions refuses an export holding a model older than the
// one either edge already caches for the user — the refusal
// InstallUserModel would otherwise raise in the middle of the install,
// after earlier models of the same export had landed.
func (s *System) checkHandoverVersions(exp *UserExport) error {
	for _, side := range []struct {
		srv    *edge.Server
		models []*edge.ExportedModel
	}{{s.Sender, exp.Sender}, {s.Receiver, exp.Receiver}} {
		for _, m := range side.models {
			local, ok := side.srv.Cache().Peek(kb.UserKey(m.Domain, m.User, kb.RoleCodec))
			if ok && local.Version > m.Version {
				return &BadHandoverError{User: m.User, Domain: m.Domain,
					Reason: fmt.Sprintf("%s already holds version %d, newer than the pushed %d", side.srv.Name(), local.Version, m.Version)}
			}
		}
	}
	return nil
}

// ImportUserFromHandover installs a migrated user's serving state: both
// edge sides' individual models and the noise sequence, under the user's
// lock. The first transmit after import continues the user's noise
// stream exactly where the old owner left it. The import is all or
// nothing: a malformed model payload or transaction buffer, a model that
// is not the user's, or one older than what this system already holds,
// anywhere in the export, fails with a *BadHandoverError before anything
// is installed, because the pusher keeps its copy on error and a
// half-installed export would fork the user's state across two members.
func (s *System) ImportUserFromHandover(exp *UserExport) error {
	if exp == nil || exp.User == "" {
		return errors.New("core: handover export names no user")
	}
	if err := s.checkHandoverBuffers(exp); err != nil {
		return err
	}
	senderParams, err := s.decodeHandoverModels(exp.User, exp.Sender)
	if err != nil {
		return err
	}
	receiverParams, err := s.decodeHandoverModels(exp.User, exp.Receiver)
	if err != nil {
		return err
	}
	// The versions are checked before lockUser, which creates a record for
	// a user this system does not know yet, so a refused import leaves
	// Users() as it found it. They are checked again under the lock, which
	// keeps an update from bumping a version before the install. A model
	// that became newer in between was installed under the user's lock, by
	// a transmit or an import that made the record first.
	if err := s.checkHandoverVersions(exp); err != nil {
		return err
	}
	st := s.lockUser(exp.User)
	defer st.mu.Unlock()
	if err := s.checkHandoverVersions(exp); err != nil {
		return err
	}
	for i, m := range exp.Sender {
		if err := s.Sender.InstallUserModel(m, senderParams[i]); err != nil {
			return fmt.Errorf("core: import sender %s/%s: %w", m.User, m.Domain, err)
		}
	}
	for i, m := range exp.Receiver {
		if err := s.Receiver.InstallUserModel(m, receiverParams[i]); err != nil {
			return fmt.Errorf("core: import receiver %s/%s: %w", m.User, m.Domain, err)
		}
	}
	if exp.NoiseSeq > st.noiseSeq {
		st.noiseSeq = exp.NoiseSeq
	}
	if len(exp.Belief) > 0 {
		if bc, ok := st.sel.(selection.BeliefCarrier); ok {
			bc.ImportBelief(exp.Belief)
		}
	}
	if len(exp.Buffers) > 0 {
		s.Sender.ImportUserBuffers(exp.User, exp.Buffers)
	}
	return nil
}

// DropUserAfterHandover removes everything this system holds for exp's
// user once the export reached its new owner: the record, every
// individual model on both edges and every transaction buffer, not only
// what the export listed. The record is marked dead under its lock before
// it leaves the map, so a transmit, export or import that was waiting on
// that lock looks the user up again instead of changing a record nothing
// can reach.
func (s *System) DropUserAfterHandover(exp *UserExport) {
	if exp != nil {
		s.retireUser(s.lockUser(exp.User), exp.User)
	}
}

// retireUser drops user's models and buffers and retires st, the user's
// live record, then releases st.mu, which the caller holds.
func (s *System) retireUser(st *userState, user string) {
	defer st.mu.Unlock()
	s.Sender.DropUser(user)
	s.Receiver.DropUser(user)
	st.dead = true
	s.usersMu.Lock()
	delete(s.users, user)
	s.usersMu.Unlock()
}
