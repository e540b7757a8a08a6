// Package kb is the knowledge-base model registry: it names, versions and
// stores the domain-specialized general models and user-specific individual
// models that the edge servers cache. The cloud origin in the experiments
// is simply a Registry that edge caches fetch from on miss.
package kb

import (
	"fmt"
	"sync"

	"repro/internal/semantic"
)

// Role distinguishes which half of a codec a key refers to. Sizes and
// transfer costs differ per role: the paper's update process ships decoder
// state only.
type Role int

// Role values. They start at 1 so the zero value is invalid and cannot be
// confused with a real role.
const (
	// RoleEncoder names the semantic-encoder tensors.
	RoleEncoder Role = iota + 1
	// RoleDecoder names the semantic-decoder tensors.
	RoleDecoder
	// RoleCodec names the full encoder+decoder pair.
	RoleCodec
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleEncoder:
		return "encoder"
	case RoleDecoder:
		return "decoder"
	case RoleCodec:
		return "codec"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Key identifies one model in a registry or cache.
type Key struct {
	// Domain is the domain the model specializes in, e.g. "it".
	Domain string
	// User is the owning user for individual models; empty for the
	// domain-specialized general model.
	User string
	// Role selects encoder, decoder or the full codec.
	Role Role
}

// IsGeneral reports whether the key names a domain-general model.
func (k Key) IsGeneral() bool { return k.User == "" }

// String implements fmt.Stringer.
func (k Key) String() string {
	if k.IsGeneral() {
		return fmt.Sprintf("%s/general/%s", k.Domain, k.Role)
	}
	return fmt.Sprintf("%s/%s/%s", k.Domain, k.User, k.Role)
}

// GeneralKey names the general model for a domain and role.
func GeneralKey(domain string, role Role) Key {
	return Key{Domain: domain, Role: role}
}

// UserKey names a user's individual model for a domain and role.
func UserKey(domain, user string, role Role) Key {
	return Key{Domain: domain, User: user, Role: role}
}

// Model is one stored model: a semantic codec (or one half of it) plus
// metadata. Size accounting follows the role so cache capacity tracks what
// would really be stored.
type Model struct {
	Key     Key
	Version int
	Codec   *semantic.Codec
}

// SizeBytes returns the serialized parameter footprint for the model's
// role.
func (m *Model) SizeBytes() int64 {
	switch m.Key.Role {
	case RoleEncoder:
		return m.Codec.EncoderSizeBytes()
	case RoleDecoder:
		return m.Codec.DecoderSizeBytes()
	default:
		return m.Codec.SizeBytes()
	}
}

// Registry is a concurrency-safe model store.
type Registry struct {
	mu     sync.RWMutex
	models map[Key]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[Key]*Model, 16)}
}

// Put stores m, replacing any model with the same key.
func (r *Registry) Put(m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[m.Key] = m
}

// Get returns the model for k.
func (r *Registry) Get(k Key) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[k]
	return m, ok
}

// Len returns the number of stored models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
