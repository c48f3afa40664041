package runtime

import (
	"errors"
	"fmt"
)

// Context is handed to every plugin at start: the switchboard for event
// streams and the phonebook for services.
type Context struct {
	Switchboard *Switchboard
	Phonebook   *Phonebook
}

// Plugin is a dynamically loadable ILLIXR component. In the original,
// plugins are shared objects; here they are Go values the caller
// constructs, interchangeable as long as they speak the same event
// streams (§II-B).
type Plugin interface {
	// Name is the unique plugin instance name, e.g. "vio.openvins".
	Name() string
	// Start wires the plugin to its topics. Live plugins may spawn
	// goroutines; they must stop when Stop is called.
	Start(ctx *Context) error
	// Stop tears the plugin down.
	Stop() error
}

// Loader owns a set of started plugins, stopping them in reverse order.
type Loader struct {
	ctx     *Context
	started []Plugin // backed by inline until it outgrows it
	inline  [2]Plugin
}

// NewLoader creates a loader over a fresh context. The loader, its
// context, switchboard and phonebook — with their inline topics,
// services and plugin list — are one allocation: an offload client
// builds a runtime per session and drops it with the session.
func NewLoader() *Loader {
	rt := &struct {
		l  Loader
		c  Context
		sb Switchboard
		pb Phonebook
	}{}
	rt.c = Context{Switchboard: &rt.sb, Phonebook: &rt.pb}
	rt.l.ctx = &rt.c
	rt.l.started = rt.l.inline[:0]
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
	clear(l.started)
	l.started = l.started[:0]
	return errors.Join(errs...)
}
