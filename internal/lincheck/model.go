package lincheck

import (
	"fmt"
	"sort"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/workload"
)

// Model is the pure sequential reference implementation of the fsapi surface
// (plus hard links). It mirrors the observable semantics of the public
// Session API exactly — error sentinels, their precedence, and what each
// read returns — as implemented by internal/server and internal/client:
//
//   - path resolution fails with ErrNotExist for a missing intermediate
//     component and ErrNotDir for a non-directory one, before the target is
//     ever considered (client lookup, §5.2.1);
//   - create/mkdir over any existing name is ErrExist; delete of a directory
//     is ErrIsDir; rmdir of a non-directory is ErrNotDir, of a non-empty
//     directory ErrNotEmpty;
//   - rename checks, in server order: source existence (ErrNotExist), the
//     self-rename no-op, the orphaned-loop guard for directories (ErrLoop),
//     then destination non-existence (ErrExist);
//   - link rejects directories with ErrIsDir and an existing destination
//     with ErrExist; a link is observably an independent reference (chmod on
//     one name never affects the other — servers store per-reference perms);
//   - operations addressing the root itself are ErrInvalid, except
//     statdir/readdir which resolve "/" directly.
//
// Directory Attr.Size is the live entry count, the aggregated value StatDir
// returns after deferred updates apply.
type Model struct {
	root *mnode
	// brokenRename deliberately corrupts rename semantics (destination
	// overwrite instead of ErrExist) for the checker's mutation self-test.
	brokenRename bool
}

// mnode is one namespace object. Files carry only perm; directories carry
// children.
type mnode struct {
	typ  core.FileType
	perm core.Perm
	kids map[string]*mnode
}

// NewModel builds an empty namespace.
func NewModel() *Model {
	return &Model{root: &mnode{typ: core.TypeDir, perm: core.DefaultDirPerm,
		kids: map[string]*mnode{}}}
}

// NewBrokenRenameModel builds a model whose rename semantics are wrong on
// purpose (destination overwrite). The mutation test proves the checker
// catches it with a minimized counterexample.
func NewBrokenRenameModel() *Model {
	m := NewModel()
	m.brokenRename = true
	return m
}

// Clone deep-copies the model (the linearizability search branches).
func (m *Model) Clone() *Model {
	return &Model{root: cloneNode(m.root), brokenRename: m.brokenRename}
}

func cloneNode(n *mnode) *mnode {
	c := &mnode{typ: n.typ, perm: n.perm}
	if n.kids != nil {
		c.kids = make(map[string]*mnode, len(n.kids))
		for name, kid := range n.kids {
			c.kids[name] = cloneNode(kid)
		}
	}
	return c
}

// Key returns a canonical serialization of the namespace, used to memoize
// the linearizability search.
func (m *Model) Key() string {
	var b strings.Builder
	writeKey(&b, m.root)
	return b.String()
}

func writeKey(b *strings.Builder, n *mnode) {
	fmt.Fprintf(b, "%d:%o", n.typ, n.perm)
	if n.typ != core.TypeDir {
		return
	}
	b.WriteByte('{')
	for _, name := range sortedNames(n.kids) {
		b.WriteString(name)
		b.WriteByte('=')
		writeKey(b, n.kids[name])
		b.WriteByte(';')
	}
	b.WriteByte('}')
}

func sortedNames(kids map[string]*mnode) []string {
	names := make([]string, 0, len(kids))
	for name := range kids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// walk resolves a path's parent chain. It returns the parent node, the leaf
// name, and the chain of directory nodes walked (root first, parent last) —
// the model twin of the client's ancestor list.
func (m *Model) walk(path string) (*mnode, string, []*mnode, error) {
	comps, err := core.SplitPath(path)
	if err != nil {
		return nil, "", nil, err
	}
	if len(comps) == 0 {
		return nil, "", nil, core.ErrInvalid
	}
	cur := m.root
	chain := []*mnode{cur}
	for _, comp := range comps[:len(comps)-1] {
		kid := cur.kids[comp]
		if kid == nil {
			return nil, "", nil, core.ErrNotExist
		}
		if kid.typ != core.TypeDir {
			return nil, "", nil, core.ErrNotDir
		}
		cur = kid
		chain = append(chain, cur)
	}
	return cur, comps[len(comps)-1], chain, nil
}

// walkDir resolves a whole path to a directory node (statdir/readdir); "/"
// resolves to the root.
func (m *Model) walkDir(path string) (*mnode, error) {
	comps, err := core.SplitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return m.root, nil
	}
	parent, name, _, err := m.walk(path)
	if err != nil {
		return nil, err
	}
	kid := parent.kids[name]
	if kid == nil {
		return nil, core.ErrNotExist
	}
	if kid.typ != core.TypeDir {
		return nil, core.ErrNotDir
	}
	return kid, nil
}

func fail(err error) workload.Outcome { return workload.Outcome{Err: err} }

// Apply executes one operation against the model, mutating it on success.
func (m *Model) Apply(op workload.Op) workload.Outcome {
	switch op.Kind {
	case core.OpCreate, core.OpMkdir:
		parent, name, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		if parent.kids[name] != nil {
			return fail(core.ErrExist)
		}
		n := &mnode{typ: core.TypeRegular, perm: op.Perm}
		if op.Kind == core.OpMkdir {
			n.typ = core.TypeDir
			n.kids = map[string]*mnode{}
			if n.perm == 0 {
				n.perm = core.DefaultDirPerm
			}
		} else if n.perm == 0 {
			n.perm = core.DefaultFilePerm
		}
		parent.kids[name] = n
		return workload.Outcome{}

	case core.OpDelete:
		parent, name, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		n := parent.kids[name]
		if n == nil {
			return fail(core.ErrNotExist)
		}
		if n.typ == core.TypeDir {
			return fail(core.ErrIsDir)
		}
		delete(parent.kids, name)
		return workload.Outcome{}

	case core.OpRmdir:
		parent, name, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		n := parent.kids[name]
		if n == nil {
			return fail(core.ErrNotExist)
		}
		if n.typ != core.TypeDir {
			return fail(core.ErrNotDir)
		}
		if len(n.kids) > 0 {
			return fail(core.ErrNotEmpty)
		}
		delete(parent.kids, name)
		return workload.Outcome{}

	case core.OpStat, core.OpOpen, core.OpClose:
		parent, name, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		n := parent.kids[name]
		if n == nil {
			return fail(core.ErrNotExist)
		}
		return workload.Outcome{Attr: m.attrOf(n)}

	case core.OpChmod:
		parent, name, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		n := parent.kids[name]
		if n == nil {
			return fail(core.ErrNotExist)
		}
		n.perm = op.Perm
		return workload.Outcome{Attr: m.attrOf(n)}

	case core.OpStatDir:
		dir, err := m.walkDir(op.Path)
		if err != nil {
			return fail(err)
		}
		return workload.Outcome{Attr: m.attrOf(dir)}

	case core.OpReadDir:
		dir, err := m.walkDir(op.Path)
		if err != nil {
			return fail(err)
		}
		entries := make([]core.DirEntry, 0, len(dir.kids))
		for _, name := range sortedNames(dir.kids) {
			kid := dir.kids[name]
			entries = append(entries, core.DirEntry{Name: name, Type: kid.typ, Perm: kid.perm})
		}
		return workload.Outcome{Attr: m.attrOf(dir), Entries: entries}

	case core.OpRename:
		sp, sname, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		dp, dname, dchain, err := m.walk(op.Path2)
		if err != nil {
			return fail(err)
		}
		src := sp.kids[sname]
		if src == nil {
			return fail(core.ErrNotExist)
		}
		if sp == dp && sname == dname {
			return workload.Outcome{} // rename to itself: no-op
		}
		if src.typ == core.TypeDir {
			// Orphaned-loop guard: the destination's parent chain must not
			// pass through the directory being moved (§5.2).
			for _, anc := range dchain {
				if anc == src {
					return fail(core.ErrLoop)
				}
			}
		}
		if dp.kids[dname] != nil && !m.brokenRename {
			return fail(core.ErrExist)
		}
		delete(sp.kids, sname)
		dp.kids[dname] = src
		return workload.Outcome{}

	case core.OpLink:
		sp, sname, _, err := m.walk(op.Path)
		if err != nil {
			return fail(err)
		}
		dp, dname, _, err := m.walk(op.Path2)
		if err != nil {
			return fail(err)
		}
		src := sp.kids[sname]
		if src == nil {
			return fail(core.ErrNotExist)
		}
		if src.typ == core.TypeDir {
			return fail(core.ErrIsDir)
		}
		if dp.kids[dname] != nil {
			return fail(core.ErrExist)
		}
		// Observably an independent reference: same type and current perm,
		// diverging freely afterwards (servers store per-reference perms).
		dp.kids[dname] = &mnode{typ: src.typ, perm: src.perm}
		return workload.Outcome{}

	case core.OpRead, core.OpWrite:
		// Content ops have no namespace effect; the data plane has its own
		// oracle (chaos data checker).
		return workload.Outcome{}

	default:
		return fail(core.ErrInvalid)
	}
}

// attrOf projects the observable attribute fields. Nlink mirrors the
// servers' reference inodes (always 1 for files, 2 for directories).
func (m *Model) attrOf(n *mnode) core.Attr {
	a := core.Attr{Type: n.typ, Perm: n.perm, Nlink: 1}
	if n.typ == core.TypeDir {
		a.Nlink = 2
		a.Size = int64(len(n.kids))
	}
	return a
}

// Tree renders the namespace canonically for final-state diffing: one line
// per object, sorted by path.
func (m *Model) Tree(withPerms bool) string {
	var b strings.Builder
	dumpTree(&b, m.root, "", withPerms)
	return b.String()
}

func dumpTree(b *strings.Builder, n *mnode, path string, withPerms bool) {
	if path == "" {
		fmt.Fprintf(b, "/ dir size=%d\n", len(n.kids))
	}
	for _, name := range sortedNames(n.kids) {
		kid := n.kids[name]
		p := path + "/" + name
		if kid.typ == core.TypeDir {
			fmt.Fprintf(b, "%s dir size=%d", p, len(kid.kids))
		} else {
			fmt.Fprintf(b, "%s %s", p, kid.typ)
		}
		if withPerms {
			fmt.Fprintf(b, " perm=%#o", kid.perm)
		}
		b.WriteByte('\n')
		if kid.typ == core.TypeDir {
			dumpTree(b, kid, p, withPerms)
		}
	}
}
