package node

import (
	"fmt"
	"net"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/bridge"
	"illixr/internal/netxr/wire"
	"illixr/internal/runtime"
	"illixr/internal/telemetry"
)

// Client is the device end of one offload session: a TCP connection, the
// bridge handshake, and a runtime hosting the downlink and uplink
// plugins with a span collector on the phonebook, so uplinked frames
// carry trace refs. Whatever publishes on the runtime's IMU and camera
// topics is streamed up; fast poses come back on its fast-pose topic.
type Client struct {
	// Addr is the replica or gateway to dial.
	Addr string
	// Hello is the handshake (app, seed, sensor rates, resume token).
	Hello wire.Hello
	// Record captures this client's traffic, Hello and Welcome included,
	// into this binlog file for later illixr-replay runs (DESIGN.md §13).
	Record string

	// Set by Start: the established session, and the runtime hosting its
	// downlink and uplink — load the sensor source beside them.
	Bridge *bridge.Client
	Loader *runtime.Loader

	recording
}

// Start dials, handshakes and starts the downlink and uplink plugins. A
// refusal surfaces as a wrapped *bridge.RefusedError.
func (c *Client) Start() error {
	conn, err := net.Dial("tcp", c.Addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	h := c.Hello
	if err := c.open(c.Record, binlog.Meta{App: h.App, Seed: h.Seed,
		IMURateHz: h.IMURateHz, CamRateHz: h.CamRateHz, Label: "client"}, nil); err != nil {
		_ = conn.Close()
		return err
	}
	tracer := telemetry.NewSpanCollector(0)
	c.Bridge, err = bridge.DialWith(conn, h, bridge.DialOptions{Tracer: tracer, Capture: c.capture})
	if err != nil { // DialWith closed the conn
		_ = c.recording.close()
		return fmt.Errorf("handshake: %w", err)
	}
	c.Loader = runtime.NewLoader()
	_ = c.Loader.Context().Phonebook.Register(telemetry.TracerService, tracer) // fresh phonebook: cannot collide
	for _, p := range []runtime.Plugin{c.Bridge.Downlink(), c.Bridge.Uplink()} {
		if err := c.Loader.Load(p); err != nil {
			_ = c.Close()
			return fmt.Errorf("load %s: %w", p.Name(), err)
		}
	}
	return nil
}

// Close says Bye and closes the connection, stops the plugins, then
// closes the capture. A second Close is a no-op.
func (c *Client) Close() error {
	if c.Bridge != nil {
		_ = c.Bridge.Close() // the conn may already be severed; nothing to report
		_ = c.Loader.Shutdown()
	}
	return c.recording.close()
}
