"""The numpy network kernel (core) and its checkpoint container (checkpoint)."""
