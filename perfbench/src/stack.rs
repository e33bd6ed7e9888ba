//! The system under test, started in-process: a durable store, the
//! service executor over it, the TCP server on a loopback port, and one
//! client connection.

use net::{Backend, Client, Server, ServerConfig};
use oodb::Database;
use service::{Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storage::RealFs;
use xsql::{EvalOptions, Session};

/// How the service makes commits durable, as stated with every result.
pub const FLUSH_POLICY: &str = "fsync per group commit (one client, so one unit per fsync)";

/// One running server stack and its single client. Fields drop in
/// order: the client disconnects before the server joins its threads.
pub struct Stack {
    pub client: Client,
    server: Server,
    svc: Arc<Service>,
    dir: PathBuf,
}

impl Stack {
    /// Creates a fresh store in `dir` over `db`, starts the service and
    /// the server, and connects one client.
    pub fn start(db: Database, dir: &Path, base_tag: &str) -> Result<Stack, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let session =
            Session::open_dir(Box::new(RealFs), dir, db, base_tag, EvalOptions::default())
                .map_err(|e| format!("create store: {e}"))?;
        let svc = Arc::new(Service::start(session, ServiceConfig::default()));
        let server = Server::start(
            Backend::Primary(Arc::clone(&svc)),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("start server: {e}"))?;
        let client = Client::connect(&server.local_addr().to_string(), "")
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Stack {
            dir: dir.to_path_buf(),
            svc,
            server,
            client,
        })
    }

    /// The service behind the server (its registry and epochs).
    pub fn service(&self) -> &Service {
        &self.svc
    }

    /// Closes the client, joins every server and service thread, and
    /// deletes the store.
    pub fn stop(self) {
        let Stack {
            dir,
            svc,
            server,
            client,
        } = self;
        client.goodbye();
        server.shutdown();
        if let Ok(svc) = Arc::try_unwrap(svc) {
            let _ = svc.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
