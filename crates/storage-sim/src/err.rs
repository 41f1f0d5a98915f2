//! Error codes surfaced by the simulated storage stack, mirroring the POSIX
//! failures real HPC I/O middleware must handle.

use std::fmt;

/// A storage error. The variants map 1:1 onto the `errno` values the real
/// interfaces would return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErr {
    /// `ENOENT`: path does not exist.
    NotFound,
    /// `EEXIST`: exclusive create of an existing path.
    AlreadyExists,
    /// `ENOSPC`: the tier's capacity is exhausted.
    NoSpace,
    /// `EBADF`: operation on a closed or invalid descriptor.
    BadFd,
    /// `EISDIR`: data operation on a directory.
    IsDir,
    /// `ENOTDIR`: path component is not a directory.
    NotDir,
    /// `EINVAL`: malformed path or argument.
    Invalid,
    /// `EMFILE`: per-process descriptor table is full.
    TooManyOpenFiles,
    /// `EROFS` / permission: write to a read-only open.
    ReadOnly,
    /// `EIO`: a transient device/network error injected by a fault plan.
    /// Retrying the operation may succeed.
    TransientIo,
    /// `EAGAIN`-like: the servers needed by this operation are unavailable
    /// (outage window or injected metadata-service fault). Retryable.
    ServerUnavailable,
}

impl IoErr {
    /// Whether a retry of the same operation can be expected to succeed —
    /// the predicate the resilience middleware uses to decide between
    /// backing off and surfacing the error to the caller.
    pub fn is_transient(&self) -> bool {
        matches!(self, IoErr::TransientIo | IoErr::ServerUnavailable)
    }
}

impl fmt::Display for IoErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoErr::NotFound => "no such file or directory",
            IoErr::AlreadyExists => "file exists",
            IoErr::NoSpace => "no space left on device",
            IoErr::BadFd => "bad file descriptor",
            IoErr::IsDir => "is a directory",
            IoErr::NotDir => "not a directory",
            IoErr::Invalid => "invalid argument",
            IoErr::TooManyOpenFiles => "too many open files",
            IoErr::ReadOnly => "read-only file",
            IoErr::TransientIo => "input/output error (transient)",
            IoErr::ServerUnavailable => "storage server unavailable",
        };
        f.write_str(s)
    }
}

impl std::error::Error for IoErr {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_like_errno_strings() {
        assert_eq!(IoErr::NotFound.to_string(), "no such file or directory");
        assert_eq!(IoErr::NoSpace.to_string(), "no space left on device");
        assert_eq!(
            IoErr::ServerUnavailable.to_string(),
            "storage server unavailable"
        );
    }

    #[test]
    fn only_fault_variants_are_transient() {
        assert!(IoErr::TransientIo.is_transient());
        assert!(IoErr::ServerUnavailable.is_transient());
        assert!(!IoErr::NoSpace.is_transient());
        assert!(!IoErr::NotFound.is_transient());
        assert!(!IoErr::BadFd.is_transient());
    }
}
