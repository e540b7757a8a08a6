package edge

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kb"
	"repro/internal/nn"
)

// ErrNoIndividual reports that the user has no individual model cached on
// this server (never personalized here, or the unpinned entry was
// evicted). Handover treats it as "nothing to migrate".
var ErrNoIndividual = errors.New("edge: no individual model")

// This file implements individual-model handover: when a user moves
// between edge servers (the mobility scenario of 6G deployments), the
// serving infrastructure migrates their personalized codec so the §II-B
// personalization survives the move instead of being relearned from
// scratch.

// ExportedModel is a serialized individual model ready for migration.
type ExportedModel struct {
	Domain  string
	User    string
	Version int
	// Params is the full parameter payload (encoder + decoder: unlike the
	// §II-D decoder sync, a handover moves the whole individual model).
	Params []byte
}

// SizeBytes returns the migration payload size.
func (m *ExportedModel) SizeBytes() int64 {
	return int64(len(m.Params) + len(m.Domain) + len(m.User) + 8)
}

// UserDomains returns the domains for which this server currently caches
// an individual model for user, in deterministic (sorted) order: the set
// of models a handover must migrate. Only the user's own handful of keys
// is sorted, never the full cache.
func (s *Server) UserDomains(user string) []string {
	keys := s.cache.KeysWhere(func(k kb.Key) bool {
		return k.User == user && k.Role == kb.RoleCodec
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.Domain
	}
	sort.Strings(out)
	return out
}

// DropUser removes everything the server holds for user — every
// individual model and every transaction buffer — once a handover shipped
// the user to the new owner.
func (s *Server) DropUser(user string) {
	for _, domain := range s.UserDomains(user) {
		s.cache.Remove(kb.UserKey(domain, user, kb.RoleCodec))
	}
	s.mu.Lock()
	delete(s.buffers, user)
	s.mu.Unlock()
}

// AppendUserModel serializes the user's individual model for migration to
// a peer edge, failing with ErrNoIndividual if there is none here: the
// model's parameters are appended to dst, the returned model's Params view
// them, and the extended buffer comes back for the next model.
func (s *Server) AppendUserModel(dst []byte, domain, user string) (*ExportedModel, []byte, error) {
	acq, err := s.AcquireCodec(domain, user)
	if err != nil {
		return nil, dst, err
	}
	if !acq.Individual {
		return nil, dst, fmt.Errorf("edge %s: %w for %s/%s", s.name, ErrNoIndividual, user, domain)
	}
	start := len(dst)
	dst, err = acq.Model.Codec.AppendParams(dst)
	if err != nil {
		return nil, dst, fmt.Errorf("edge %s: export %s/%s: %w", s.name, user, domain, err)
	}
	return &ExportedModel{
		Domain:  domain,
		User:    user,
		Version: acq.Model.Version,
		Params:  dst[start:len(dst):len(dst)],
	}, dst, nil
}

// InstallUserModel installs a migrated individual model from params, its
// payload as the caller parsed and validated it (core checks a whole
// export before the first model lands): m.Params is not read again. When
// the server caches no individual model for (m.User, m.Domain), a new one
// is built on params' tensors, which it adopts: the caller must not touch
// params again. Otherwise the cached model's parameters are overwritten;
// a version older than the cached one, or params of another shape, is
// refused and leaves the cached model as it was.
func (s *Server) InstallUserModel(m *ExportedModel, params *nn.ParamSet) error {
	model, created, _, err := s.personalize(m.Domain, m.User, params, m.Version)
	if err != nil {
		return err
	}
	if created {
		return nil
	}
	if model.Version > m.Version {
		return fmt.Errorf("edge %s: import %s/%s: local version %d newer than %d",
			s.name, m.User, m.Domain, model.Version, m.Version)
	}
	target := model.Codec.Params()
	if err := target.CheckSameShape(params); err != nil {
		return fmt.Errorf("edge %s: import %s/%s: %w", s.name, m.User, m.Domain, err)
	}
	target.CopyFrom(params)
	model.Version = m.Version
	return nil
}
