package nimble

import (
	"time"

	"nimble/internal/vm"
)

// RegistryOption configures NewRegistry. The zero configuration shares one
// storage pool across every hosted model, drains replaced versions with a
// 30-second bound, and splits canary traffic from a fixed seed (fully
// deterministic routing for a given deploy/request sequence).
type RegistryOption func(*registryConfig)

type registryConfig struct {
	seed          uint64
	drainBound    time.Duration
	serveDefaults []ServiceOption
}

// WithRegistrySeed sets the base seed canary-epoch split seeds derive from.
// Two registries with the same seed, deploy sequence, and request sequence
// route identically — the property the canary determinism tests pin down.
func WithRegistrySeed(seed uint64) RegistryOption {
	return func(c *registryConfig) { c.seed = seed }
}

// WithDrainTimeout bounds how long a replaced version may keep serving its
// in-flight requests and open streams after a hot-swap before stragglers
// are cut with ErrClosed (default 30s).
func WithDrainTimeout(d time.Duration) RegistryOption {
	return func(c *registryConfig) { c.drainBound = d }
}

// WithServeDefaults sets ServiceOptions applied to every Deploy.
func WithServeDefaults(opts ...ServiceOption) RegistryOption {
	return func(c *registryConfig) { c.serveDefaults = append(c.serveDefaults, opts...) }
}

// DeployOption configures one Registry.Deploy.
type DeployOption func(*deployConfig)

type deployConfig struct {
	canary int
}

// WithCanary deploys the new version as a canary serving pct percent of the
// model's unpinned traffic (1–99) instead of replacing the stable outright.
// The rollout ends with Promote (canary becomes stable) or Rollback (canary
// is dropped); either drains the losing version. Requires an existing
// stable version to split against.
func WithCanary(pct int) DeployOption {
	return func(c *deployConfig) { c.canary = pct }
}

// WithRouteKey pins the request's canary-split decision to key: within one
// canary epoch, every request carrying the same key routes to the same
// version, so a user session never flaps between weight versions
// mid-rollout. Ignored outside a Registry invoke or when no canary is live.
func WithRouteKey(key string) InvokeOption {
	return func(c *invokeConfig) { c.routeKey = key }
}

// SharedStorageStats snapshots the registry's cross-program storage tier:
// bytes parked for reuse, hit/miss traffic, and how many donations were
// accepted or dropped at the per-class bound.
type SharedStorageStats = vm.SharedPoolStats
