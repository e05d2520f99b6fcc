use std::fmt;

/// Errors produced by the incremental mechanisms.
#[derive(Debug)]
pub enum CoreError {
    /// The stream exceeded the declared horizon `T`.
    StreamOverflow {
        /// Declared horizon.
        t_max: usize,
    },
    /// A stream item violated the domain contract.
    InvalidPoint {
        /// What went wrong.
        reason: String,
    },
    /// Bad mechanism configuration.
    InvalidConfig {
        /// What went wrong.
        reason: String,
    },
    /// A captured state blob was rejected on load — truncated, forged, or
    /// describing a state this mechanism could never have reached.
    InvalidState {
        /// What went wrong.
        reason: String,
    },
    /// The mechanism does not support state capture/restore (e.g. it holds
    /// the full history or an opaque closure), so it cannot be snapshotted
    /// or spilled.
    StateUnsupported {
        /// The mechanism's name.
        mechanism: String,
    },
    /// Error from the DP layer.
    Dp(pir_dp::DpError),
    /// Error from the continual-release layer.
    Continual(pir_continual::ContinualError),
    /// Error from the ERM layer.
    Erm(pir_erm::ErmError),
    /// Error from the linear-algebra layer.
    Linalg(pir_linalg::LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::StreamOverflow { t_max } => {
                write!(f, "stream overflow: mechanism was constructed for T = {t_max}")
            }
            CoreError::InvalidPoint { reason } => write!(f, "invalid stream point: {reason}"),
            CoreError::InvalidConfig { reason } => {
                write!(f, "invalid mechanism configuration: {reason}")
            }
            CoreError::InvalidState { reason } => {
                write!(f, "invalid mechanism state: {reason}")
            }
            CoreError::StateUnsupported { mechanism } => {
                write!(f, "mechanism '{mechanism}' does not support state capture/restore")
            }
            CoreError::Dp(e) => write!(f, "{e}"),
            CoreError::Continual(e) => write!(f, "{e}"),
            CoreError::Erm(e) => write!(f, "{e}"),
            CoreError::Linalg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<pir_dp::DpError> for CoreError {
    fn from(e: pir_dp::DpError) -> Self {
        CoreError::Dp(e)
    }
}

/// A tree refusing a captured state is a rejected state blob, so it
/// surfaces as [`CoreError::InvalidState`] like every other load failure.
impl From<pir_continual::ContinualError> for CoreError {
    fn from(e: pir_continual::ContinualError) -> Self {
        match e {
            pir_continual::ContinualError::InvalidState { reason } => {
                CoreError::InvalidState { reason }
            }
            e => CoreError::Continual(e),
        }
    }
}

impl From<pir_erm::ErmError> for CoreError {
    fn from(e: pir_erm::ErmError) -> Self {
        CoreError::Erm(e)
    }
}

impl From<pir_linalg::LinalgError> for CoreError {
    fn from(e: pir_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}
