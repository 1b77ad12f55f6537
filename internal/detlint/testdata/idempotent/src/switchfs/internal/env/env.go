// Package env stubs the simulator runtime for the idempotent testdata: the
// send graph's emission roots are the Send/Spawn methods at this path.
package env

// NodeID identifies a simulated node.
type NodeID uint32

// Proc is a stub of the simulator process handle.
type Proc struct{}

func (p *Proc) Send(to NodeID, msg any)           {}
func (p *Proc) Spawn(name string, fn func(*Proc)) {}
