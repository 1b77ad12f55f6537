// Package env stubs the simulator runtime for the sendalias testdata: the
// analyzer's emission roots are the Send/Spawn methods at this import path.
package env

// Proc is a stub of the simulator process handle. Send's destination is a
// bare uint32 so the suite's packets can use their Dst field directly.
type Proc struct{}

func (p *Proc) Send(to uint32, msg any)           {}
func (p *Proc) Spawn(name string, fn func(*Proc)) {}
