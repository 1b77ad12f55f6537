// Package env stubs the simulator runtime for the detlint testdata: just
// enough surface for the analyzers' emission-root detection (Proc.Send,
// Proc.Spawn, Sim.After). The import path mirrors the real runtime so the
// suite's embedded config applies unchanged.
package env

// NodeID identifies a simulated node.
type NodeID uint32

// Proc is a stub of the simulator process handle.
type Proc struct{}

func (p *Proc) Send(to NodeID, msg any)           {}
func (p *Proc) Spawn(name string, fn func(*Proc)) {}
func (p *Proc) Compute(cost int64)                {}

// Sim is a stub of the simulator handle.
type Sim struct{}

func (s *Sim) After(delay int64, fn func(*Proc)) {}
