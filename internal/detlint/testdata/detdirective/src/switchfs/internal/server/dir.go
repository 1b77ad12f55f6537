// Package server exercises detdirective: the suite's own directives must be
// well-formed, and a suppression without a written reason is a diagnostic.
// The `want` markers ride inside the directive comments themselves, which is
// why some expectations also match the resulting parse errors.
package server

//detlint:ignore hostapi // want `malformed //detlint:ignore: missing reason`
var a int

//detlint:ignore nosuch -- covered elsewhere // want `unknown analyzer "nosuch"`
var b int

//detlint:ignore -- lazy // want `no analyzer named`
var c int

//detlint:frobnicate now // want `unknown detlint directive "frobnicate"`
var d int

// The protocol rules the code now keeps have no directives left.
//
//detlint:wal-before-send recX // want `unknown detlint directive "wal-before-send"`
func wellFormed() {
	//detlint:ignore maprange,lockpair -- a written reason satisfies the policy
	_ = 0
}

//detlint:lock-escapes // want `malformed //detlint:lock-escapes: missing reason` `must be in a function declaration's doc comment`
var e int

//detlint:dedup-check // want `unknown detlint directive "dedup-check"`
var g int

// escapes hands its locks to the prepared-transaction record.
//
//detlint:lock-escapes locks transfer to the prepared-txn record
func escapes() {}

func misplaced() {
	//detlint:lock-escapes held by the caller // want `must be in a function declaration's doc comment`
	_ = 0
}
