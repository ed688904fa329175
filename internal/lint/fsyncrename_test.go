package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fsyncrename enforces the write-fsync-rename durability protocol.
//
// Atomically replacing a file (the snapshot, a rotated journal) only
// guarantees the *new* contents survive a crash if the data is fsynced
// before the rename: rename is a metadata operation, and most filesystems
// will happily commit the rename while the file's blocks are still dirty in
// the page cache, leaving a zero-length or torn file behind after power
// loss. So any os.Rename in a function with no preceding (*os.File).Sync
// call is reported.
//
// The check is intra-function and position-based — a Sync anywhere earlier
// in the same function (including one guarding an early return) satisfies
// it. That is deliberately conservative in the safe direction for this
// codebase's style, where the temp-file write, sync, and rename live in one
// function; code that splits the protocol across helpers documents itself
// with //caarlint:allow fsyncrename <reason>.
//
// The analyzer also enforces the second half of the protocol: the rename
// itself is a directory-entry operation, durable only once the parent
// directory is fsynced. A function's last os.Rename must therefore be
// followed (position-wise, same function) by either another (*os.File).Sync
// — the opened-directory sync — or a call to a helper named FsyncDir /
// fsyncDir, the codebase's canonical directory-fsync wrappers
// (journal.FsyncDir and the snapshot-local fsyncDir).
func fsyncrename(pass *pass) {
	for _, fd := range pass.funcs() {
		var renames []*ast.CallExpr
		var syncs []token.Pos    // File.Sync calls, in token order
		var dirSyncs []token.Pos // File.Sync or FsyncDir/fsyncDir helper calls

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch {
			case isOSRename(fn):
				renames = append(renames, call)
			case isFileSync(fn):
				syncs = append(syncs, call.Pos())
				dirSyncs = append(dirSyncs, call.Pos())
			case isFsyncDirHelper(fn):
				dirSyncs = append(dirSyncs, call.Pos())
			}
			return true
		})

		for _, rc := range renames {
			synced := false
			for _, sp := range syncs {
				if sp < rc.Pos() {
					synced = true
					break
				}
			}
			if synced {
				continue
			}
			pass.Reportf(rc.Pos(),
				"os.Rename with no preceding (*os.File).Sync in %s; a rename only publishes durable bytes after the data is fsynced — sync the written file first",
				fd.Name.Name)
		}

		// Directory-fsync half of the protocol: the rename is a
		// directory-entry operation, durable only once the parent directory
		// is fsynced after it. Checking only the function's last rename keeps
		// rotate-then-publish sequences (rename old aside, rename new in,
		// one dir sync) to a single required sync.
		if len(renames) > 0 {
			last := renames[len(renames)-1]
			dirSynced := false
			for _, sp := range dirSyncs {
				if sp > last.Pos() {
					dirSynced = true
					break
				}
			}
			if !dirSynced {
				pass.Reportf(last.Pos(),
					"os.Rename not followed by a directory fsync in %s; the rename is a directory-entry operation — sync the parent directory (File.Sync on the opened dir, or FsyncDir) after the last rename",
					fd.Name.Name)
			}
		}
	}
}

// isFsyncDirHelper matches the codebase's directory-fsync wrappers by name:
// journal.FsyncDir and package-local fsyncDir helpers. Name-based on
// purpose — the helpers live in different packages and the analyzer must
// not import them.
func isFsyncDirHelper(fn *types.Func) bool {
	return fn.Name() == "FsyncDir" || fn.Name() == "fsyncDir"
}

// isOSRename matches the os.Rename function.
func isOSRename(fn *types.Func) bool {
	return fn.Name() == "Rename" && fn.Pkg() != nil && fn.Pkg().Path() == "os" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// isFileSync matches the (*os.File).Sync method.
func isFileSync(fn *types.Func) bool {
	return fn.Name() == "Sync" && isMethodOf(fn, "os", "File")
}
