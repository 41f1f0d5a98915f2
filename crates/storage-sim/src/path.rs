//! Path normalization for the simulated namespaces.
//!
//! Paths are absolute, `/`-separated, with no `.`/`..` resolution beyond
//! collapsing duplicate separators and trailing slashes — the simulated
//! workloads always use clean absolute paths, and anything else is rejected
//! loudly rather than guessed at.

use crate::err::IoErr;

/// Normalize an absolute path: collapse `//`, strip a trailing `/` (except
/// for the root itself), and reject relative or dot-containing paths.
pub(crate) fn normalize(path: &str) -> Result<String, IoErr> {
    if !path.starts_with('/') {
        return Err(IoErr::Invalid);
    }
    let mut out = String::with_capacity(path.len());
    for comp in path.split('/') {
        if comp.is_empty() {
            continue;
        }
        if comp == "." || comp == ".." {
            return Err(IoErr::Invalid);
        }
        out.push('/');
        out.push_str(comp);
    }
    if out.is_empty() {
        out.push('/');
    }
    Ok(out)
}

/// The parent directory of a normalized path (`/a/b` → `/a`; `/a` → `/`).
pub(crate) fn parent(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "/",
    }
}

/// Whether `path` is `prefix` itself or lies beneath it.
pub(crate) fn starts_with_dir(path: &str, prefix: &str) -> bool {
    if prefix == "/" {
        return true;
    }
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_separators() {
        assert_eq!(normalize("/a//b/").unwrap(), "/a/b");
        assert_eq!(normalize("/").unwrap(), "/");
        assert_eq!(
            normalize("/p/gpfs1/run/out.bin").unwrap(),
            "/p/gpfs1/run/out.bin"
        );
    }

    #[test]
    fn relative_and_dotted_paths_are_rejected() {
        assert_eq!(normalize("a/b"), Err(IoErr::Invalid));
        assert_eq!(normalize("/a/../b"), Err(IoErr::Invalid));
        assert_eq!(normalize("/a/./b"), Err(IoErr::Invalid));
    }

    #[test]
    fn parent_of_nested_and_top_level_paths() {
        assert_eq!(parent("/a/b/c"), "/a/b");
        assert_eq!(parent("/a"), "/");
    }

    #[test]
    fn prefix_matching_respects_components() {
        assert!(starts_with_dir("/dev/shm/x", "/dev/shm"));
        assert!(starts_with_dir("/dev/shm", "/dev/shm"));
        assert!(!starts_with_dir("/dev/shmem/x", "/dev/shm"));
        assert!(starts_with_dir("/anything", "/"));
    }
}
