package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Context is handed to every plugin at start: the switchboard for event
// streams and the phonebook for services.
type Context struct {
	Switchboard *Switchboard
	Phonebook   *Phonebook
}

// Plugin is a dynamically loadable ILLIXR component. In the original,
// plugins are shared objects; here they are Go values registered under a
// role, interchangeable as long as they speak the same event streams
// (§II-B).
type Plugin interface {
	// Name is the unique plugin instance name, e.g. "vio.openvins".
	Name() string
	// Start wires the plugin to its topics. Live plugins may spawn
	// goroutines; they must stop when Stop is called.
	Start(ctx *Context) error
	// Stop tears the plugin down.
	Stop() error
}

// Factory constructs a plugin instance.
type Factory func() Plugin

// Registry maps roles (e.g. "slow_pose") to alternative plugin
// implementations, the analogue of ILLIXR's plugin loader: configs select
// one implementation per role.
type Registry struct {
	mu    sync.Mutex
	roles map[string]map[string]Factory
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{roles: map[string]map[string]Factory{}}
}

// Register adds an implementation under a role. Duplicate names within a
// role are an error.
func (r *Registry) Register(role, name string, f Factory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	impls, ok := r.roles[role]
	if !ok {
		impls = map[string]Factory{}
		r.roles[role] = impls
	}
	if _, exists := impls[name]; exists {
		return fmt.Errorf("runtime: %s/%s already registered", role, name)
	}
	impls[name] = f
	return nil
}

// Create instantiates the named implementation of a role.
func (r *Registry) Create(role, name string) (Plugin, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	impls, ok := r.roles[role]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown role %q", role)
	}
	f, ok := impls[name]
	if !ok {
		return nil, fmt.Errorf("runtime: role %q has no implementation %q", role, name)
	}
	return f(), nil
}

// Roles lists all roles, sorted.
func (r *Registry) Roles() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for role := range r.roles {
		out = append(out, role)
	}
	sort.Strings(out)
	return out
}

// Loader owns a set of started plugins, stopping them in reverse order.
type Loader struct {
	ctx     *Context
	started []Plugin
}

// NewLoader creates a loader over a fresh context. The loader, its
// context, switchboard and phonebook are one allocation: an offload
// client builds a runtime per session and drops it with the session.
func NewLoader() *Loader {
	rt := &struct {
		l  Loader
		c  Context
		sb Switchboard
		pb Phonebook
	}{}
	rt.sb.topics = map[string]*Topic{}
	rt.pb.services = map[string]any{}
	rt.c = Context{Switchboard: &rt.sb, Phonebook: &rt.pb}
	rt.l.ctx = &rt.c
	return &rt.l
}

// Context exposes the loader's context.
func (l *Loader) Context() *Context { return l.ctx }

// Load starts a plugin; on error, previously started plugins keep running
// (caller decides whether to Shutdown).
func (l *Loader) Load(p Plugin) error {
	if err := p.Start(l.ctx); err != nil {
		return fmt.Errorf("runtime: starting %s: %w", p.Name(), err)
	}
	l.started = append(l.started, p)
	return nil
}

// Shutdown stops all plugins in reverse start order. Every plugin is
// stopped even if earlier ones fail; all stop errors are aggregated with
// errors.Join so a multi-plugin teardown failure is never truncated to
// its first error.
func (l *Loader) Shutdown() error {
	var errs []error
	for i := len(l.started) - 1; i >= 0; i-- {
		if err := l.started[i].Stop(); err != nil {
			errs = append(errs, fmt.Errorf("stopping %s: %w", l.started[i].Name(), err))
		}
	}
	l.started = nil
	return errors.Join(errs...)
}
