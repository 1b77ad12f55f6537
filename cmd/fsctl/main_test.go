package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunScript pins command mode's transcript: the expected text is what the
// tool printed for the same script before it moved onto the simulator, and a
// second run must reproduce it byte for byte (one seed, one execution).
func TestRunScript(t *testing.T) {
	cases := []struct {
		name               string
		servers, dataNodes int
		script             []string
		want               string
		wantErr            string
	}{
		{
			name: "namespace-and-data", servers: 4, dataNodes: 2,
			script: []string{"mkdir /a", "create /a/f", "ln /a/f /a/g", "ls /a", "statdir /a",
				"mv /a/f /a/h", "write /a/h 8192", "stat /a/h", "rm /a/g", "rmdir /a", "stat /nope"},
			want: "mkdir /a: ok\n" +
				"create /a/f: ok\n" +
				"ln /a/f /a/g: ok\n" +
				"file\tf\n" +
				"file\tg\n" +
				"/a: dir mode=755 entries=2\n" +
				"mv /a/f /a/h: ok\n" +
				"write /a/h 8192: ok\n" +
				"/a/h: file mode=644 size=0 nlink=1\n" +
				"rm /a/g: ok\n" +
				"rmdir /a: rmdir /a: directory not empty\n" +
				"stat /nope: stat /nope: no such file or directory\n",
		},
		{
			name: "unknown-command", servers: 1,
			script: []string{"frob /a", "", "mkdir /a"},
			want:   "frob /a: unknown command \"frob\"\nmkdir /a: ok\n",
		},
		{
			name: "rejects-zero-servers", servers: 0,
			script:  []string{"mkdir /a"},
			wantErr: "servers must be >= 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < 2; run++ {
				var out bytes.Buffer
				err := runScript(&out, 1, tc.servers, tc.dataNodes, tc.script)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("run %d: err = %v, want one containing %q", run, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := out.String(); got != tc.want {
					t.Fatalf("run %d transcript\n got:\n%s\nwant:\n%s", run, got, tc.want)
				}
			}
		})
	}
}
