module switchfs

go 1.23.0

// golang.org/x/tools is vendored (vendor/) from the Go distribution's
// cmd/vendor copy: the build must work offline, so the go/analysis subset
// detlint needs is committed rather than fetched.
require golang.org/x/tools v0.28.1-0.20250131145412-98746475647e
