package perfbench

import java.io.{IOException, OutputStream}
import java.nio.file.{Files, NoSuchFileException, Paths, StandardCopyOption}
import java.util.{Comparator, UUID}
import scala.jdk.CollectionConverters._
import scala.util.Using
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{FileAlreadyExistsException, FileStatus, FSDataInputStream,
  FSInputStream, Path, PathFilter}
import org.apache.spark.sql.execution.streaming.checkpointing.CheckpointFileManager
import org.apache.spark.sql.execution.streaming.checkpointing.CheckpointFileManager.CancellableFSDataOutputStream

/** Streaming checkpoint files (offset and commit logs) written with
  * `java.nio` on the local disk.
  *
  * Without Hadoop's native library, Hadoop's local file system runs a
  * `chmod` or `stat` child process for each permission change and file
  * status, about forty per micro-batch. Forking the benchmark's JVM costs
  * milliseconds that follow the host's load rather than the program, so
  * the benchmark's session writes its checkpoints through this manager.
  * Files are still written to a temporary file and renamed into place.
  * Spark constructs it by reflection, with the checkpoint path and the
  * Hadoop configuration, which this manager does not need.
  */
final class LocalCheckpointFiles(path: Path, conf: Configuration)
    extends CheckpointFileManager {

  private def local(p: Path): java.nio.file.Path = Paths.get(p.toUri.getPath)
  private def hadoop(p: java.nio.file.Path): Path = new Path(p.toAbsolutePath.toUri)

  override def createAtomic(p: Path, overwriteIfPossible: Boolean): CancellableFSDataOutputStream = {
    val dst  = local(p)
    val temp = dst.resolveSibling(s".${dst.getFileName}.${UUID.randomUUID}.tmp")
    Files.createDirectories(dst.getParent)
    new RenamedOnClose(Files.newOutputStream(temp), temp, dst, overwriteIfPossible)
  }

  override def open(p: Path): FSDataInputStream =
    try new FSDataInputStream(new BytesInput(Files.readAllBytes(local(p))))
    catch { case e: NoSuchFileException => throw new java.io.FileNotFoundException(e.getMessage) }

  override def list(p: Path, filter: PathFilter): Array[FileStatus] =
    if (!Files.isDirectory(local(p))) Array.empty
    else Using.resource(Files.list(local(p))) { files =>
      files.iterator.asScala.map { f =>
        new FileStatus(if (Files.isDirectory(f)) 0L else Files.size(f), Files.isDirectory(f),
          1, 0L, Files.getLastModifiedTime(f).toMillis, hadoop(f))
      }.filter(s => filter.accept(s.getPath)).toArray
    }

  override def mkdirs(p: Path): Unit = Files.createDirectories(local(p))

  override def exists(p: Path): Boolean = Files.exists(local(p))

  override def delete(p: Path): Unit =
    if (Files.exists(local(p)))
      Using.resource(Files.walk(local(p))) { files =>
        files.sorted(Comparator.reverseOrder[java.nio.file.Path]()).iterator.asScala
          .foreach(f => Files.deleteIfExists(f))
      }

  override def isLocal: Boolean = true

  override def createCheckpointDirectory(): Path = {
    mkdirs(path)
    hadoop(local(path))
  }
}

/** Writes a temporary file and renames it into place on close. */
private final class RenamedOnClose(out: OutputStream, temp: java.nio.file.Path,
                                   dst: java.nio.file.Path, overwrite: Boolean)
    extends CancellableFSDataOutputStream(out) {
  private var done = false

  override def close(): Unit = synchronized {
    if (!done) {
      done = true
      super.close()
      if (!overwrite && Files.exists(dst)) {
        Files.deleteIfExists(temp)
        throw new FileAlreadyExistsException(s"$dst exists")
      }
      Files.move(temp, dst, StandardCopyOption.ATOMIC_MOVE)
    }
  }

  override def cancel(): Unit = synchronized {
    if (!done) {
      done = true
      try underlyingStream.close() finally Files.deleteIfExists(temp)
    }
  }
}

/** A whole small file in memory, readable as Hadoop's seekable stream. */
private final class BytesInput(bytes: Array[Byte]) extends FSInputStream {
  private var pos = 0

  override def seek(to: Long): Unit = {
    if (to < 0 || to > bytes.length) throw new IOException(s"seek to $to of ${bytes.length}")
    pos = to.toInt
  }
  override def getPos: Long = pos
  override def seekToNewSource(target: Long): Boolean = false

  override def read(): Int =
    if (pos >= bytes.length) -1 else { val b = bytes(pos) & 0xff; pos += 1; b }

  override def read(buf: Array[Byte], off: Int, len: Int): Int =
    if (len == 0) 0
    else if (pos >= bytes.length) -1
    else {
      val n = math.min(len, bytes.length - pos)
      System.arraycopy(bytes, pos, buf, off, n)
      pos += n
      n
    }
}
