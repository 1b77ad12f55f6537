// Package broken is the static gate's seeded failure: its one directive is a
// suppression without a written reason, which detdirective flags in every
// package. TestVetTree requires vetting it to fail.
package broken

//detlint:ignore maprange
var X int
