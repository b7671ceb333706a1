//! Host-toolchain plumbing for the native backend: find a C compiler,
//! compile the emitted translation unit to a shared object (with a
//! content-addressed on-disk artifact cache), and `dlopen` it.
//!
//! Nothing here is model-specific; correctness-sensitive flags are
//! chosen once: `-ffp-contract=off` (no fused multiply-add, so C
//! arithmetic matches Rust's IEEE semantics operation for operation) and
//! `-fexceptions` (Rust panics from runtime callbacks unwind through the
//! C frames back to the engine's `catch_unwind`).

use std::ffi::{c_char, c_int, c_void, CString};
use std::path::{Path, PathBuf};
use std::process::Command;

use super::emit::CODEGEN_VERSION;

/// Locates a usable C compiler.
///
/// When `AUGUR_CC` is set it is the *only* candidate — pointing it at a
/// nonexistent binary is the supported way to exercise the no-toolchain
/// fallback path. Otherwise `cc`, `gcc`, `clang` are probed in order.
pub(crate) fn find_cc() -> Result<String, String> {
    let candidates: Vec<String> = match std::env::var("AUGUR_CC") {
        Ok(cc) => vec![cc],
        Err(_) => vec!["cc".into(), "gcc".into(), "clang".into()],
    };
    for cand in &candidates {
        let ok = Command::new(cand)
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if ok {
            return Ok(cand.clone());
        }
    }
    Err(format!("no C compiler found (tried {})", candidates.join(", ")))
}

/// The fixed compiler arguments: `-ffp-contract=off` and `-fexceptions`
/// are correctness flags (see the module docs). Part of the artifact
/// key, so a flag change never loads an object built without it.
const CC_ARGS: [&str; 6] = ["-O2", "-fPIC", "-shared", "-fexceptions", "-ffp-contract=off", "-lm"];

/// Directory of the on-disk artifact cache, named by codegen version and
/// user: every user of a shared temporary directory gets their own.
pub(crate) fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("augur-native-v{CODEGEN_VERSION}-{}", uid()))
}

fn uid() -> u32 {
    // Safety: getuid cannot fail and touches no memory.
    unsafe { getuid() }
}

/// Checks that `dir` is a private directory of this user: a real
/// directory (not a symlink), owned by `getuid()`, with no group or
/// other permission bits. Another user of a shared temporary directory
/// could plant anything else, so the cache reads, writes and loads
/// nothing from a directory that fails.
pub(crate) fn check_private_dir(dir: &Path) -> Result<(), String> {
    use std::os::unix::fs::MetadataExt;
    let refuse = |why: String| format!("native artifact cache {}: {why}", dir.display());
    let meta = std::fs::symlink_metadata(dir).map_err(|e| refuse(e.to_string()))?;
    if !meta.file_type().is_dir() {
        return Err(refuse("not a directory (a symlink or a file)".into()));
    }
    if meta.uid() != uid() {
        return Err(refuse(format!("owned by uid {}, not {}", meta.uid(), uid())));
    }
    if meta.mode() & 0o077 != 0 {
        return Err(refuse(format!("mode {:o} grants group or other access", meta.mode() & 0o777)));
    }
    Ok(())
}

/// Whether the cache can be used: its directory is missing (a compile
/// creates it) or passes [`check_private_dir`].
pub(crate) fn cache_dir_usable() -> Result<(), String> {
    let dir = cache_dir();
    if std::fs::symlink_metadata(&dir).is_err() {
        return Ok(());
    }
    check_private_dir(&dir)
}

/// Creates the cache directory with mode 0700 when missing, and checks
/// it with [`check_private_dir`].
fn create_private_cache_dir() -> Result<(), String> {
    use std::os::unix::fs::DirBuilderExt;
    let dir = cache_dir();
    match std::fs::DirBuilder::new().mode(0o700).create(&dir) {
        Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => {
            Err(format!("creating {}: {e}", dir.display()))
        }
        _ => check_private_dir(&dir),
    }
}

/// The cache path of the object compiled from `source`: named by the
/// FNV-1a hash of the source and the compiler arguments, so an object is
/// only ever loaded for the exact code it was built from — whichever plan
/// emitted it.
fn artifact_path(source: &str) -> PathBuf {
    let key = crate::checkpoint::fnv1a(format!("{source}\0{}", CC_ARGS.join(" ")).as_bytes());
    cache_dir().join(format!("unit-{key:016x}.so"))
}

/// The cached shared object built from `source`, if one exists — a
/// cached artifact makes `Native` selectable even with no toolchain on
/// the host (the compile-once/reuse-everywhere contract).
pub(crate) fn cached_artifact(source: &str) -> Option<PathBuf> {
    check_private_dir(&cache_dir()).ok()?;
    let so = artifact_path(source);
    so.exists().then_some(so)
}

/// The compiled artifact for one translation unit.
pub(crate) struct Artifact {
    /// Path of the shared object on disk.
    pub path: PathBuf,
    /// Whether the object was reused from the disk cache (no compile).
    pub disk_hit: bool,
    /// Wall time spent in the C compiler (0 on a disk hit).
    pub compile_secs: f64,
}

/// Compiles `source` to a shared object, reusing the on-disk object
/// built from the same source when present. Fails when the cache
/// directory is not private to this user.
pub(crate) fn compile(source: &str) -> Result<Artifact, String> {
    create_private_cache_dir()?;
    if let Some(so) = cached_artifact(source) {
        return Ok(Artifact { path: so, disk_hit: true, compile_secs: 0.0 });
    }
    let so = artifact_path(source);
    let cc = find_cc()?;
    let c_path = so.with_extension("c");
    std::fs::write(&c_path, source).map_err(|e| format!("writing {}: {e}", c_path.display()))?;
    // Compile to a unique temp name, then rename: concurrent sessions
    // racing on the same unit each succeed and the winner's (identical)
    // object is what everyone loads.
    let tmp = so.with_extension(format!("so.tmp-{}", std::process::id()));
    let t0 = std::time::Instant::now();
    let out = Command::new(&cc)
        .arg(&c_path)
        .arg("-o")
        .arg(&tmp)
        .args(CC_ARGS)
        .output()
        .map_err(|e| format!("running {cc}: {e}"))?;
    let compile_secs = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "{cc} failed on {}: {}",
            c_path.display(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    std::fs::rename(&tmp, &so).map_err(|e| format!("installing {}: {e}", so.display()))?;
    Ok(Artifact { path: so, disk_hit: false, compile_secs })
}

// Hand-declared libdl entry points (glibc >= 2.34 ships them in libc
// proper, so no extra link flag is needed).
extern "C" {
    fn getuid() -> u32;
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;

/// An open shared object; closed on drop.
pub(crate) struct Library {
    handle: *mut c_void,
}

// The handle is a process-global resource; dlopen/dlsym are thread-safe.
unsafe impl Send for Library {}
unsafe impl Sync for Library {}

impl Library {
    /// Opens the object at `path` with immediate binding, once its
    /// directory passes [`check_private_dir`].
    pub fn open(path: &Path) -> Result<Library, String> {
        check_private_dir(path.parent().unwrap_or(Path::new(".")))?;
        let cpath = CString::new(path.to_string_lossy().as_bytes())
            .map_err(|_| "artifact path contains a NUL byte".to_string())?;
        // Safety: cpath is a valid NUL-terminated string.
        let handle = unsafe { dlopen(cpath.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            return Err(format!("dlopen {}: {}", path.display(), last_dl_error()));
        }
        Ok(Library { handle })
    }

    /// Looks up a symbol, returning its address.
    pub fn symbol(&self, name: &str) -> Result<*mut c_void, String> {
        let cname = CString::new(name).map_err(|_| "symbol contains a NUL byte".to_string())?;
        // Safety: handle is open, cname valid.
        let ptr = unsafe { dlsym(self.handle, cname.as_ptr()) };
        if ptr.is_null() {
            return Err(format!("dlsym {name}: {}", last_dl_error()));
        }
        Ok(ptr)
    }
}

impl Drop for Library {
    fn drop(&mut self) {
        // Safety: handle came from a successful dlopen.
        unsafe {
            dlclose(self.handle);
        }
    }
}

fn last_dl_error() -> String {
    // Safety: dlerror returns a thread-local NUL-terminated string or null.
    unsafe {
        let p = dlerror();
        if p.is_null() {
            "unknown dl error".to_string()
        } else {
            std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::fs::PermissionsExt;

    use super::*;

    #[test]
    fn only_a_private_directory_of_this_user_passes() {
        let base = std::env::temp_dir().join(format!("augur-jit-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir(&base).unwrap();
        let (open, private, link) = (base.join("open"), base.join("private"), base.join("link"));
        for (dir, mode) in [(&open, 0o755), (&private, 0o700)] {
            std::fs::create_dir(dir).unwrap();
            std::fs::set_permissions(dir, std::fs::Permissions::from_mode(mode)).unwrap();
        }
        std::os::unix::fs::symlink(&private, &link).unwrap();
        let err = check_private_dir(&open).unwrap_err();
        assert!(err.contains("mode 755 grants group or other access"), "{err}");
        assert!(err.contains(&open.display().to_string()), "{err}");
        let err = check_private_dir(&link).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        assert_eq!(check_private_dir(&private), Ok(()));
        assert!(check_private_dir(&base.join("missing")).is_err());
        // the object loader refuses a library in a shared directory
        let err = Library::open(&open.join("unit.so")).err().unwrap();
        assert!(err.contains("grants group or other access"), "{err}");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
